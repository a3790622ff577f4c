(* Memo replay: the traced solve's own memo traffic, played back through
   each memo backend's public find-or-claim API.

   {!Layers} captured the distinct keys (at [moves]) and, per domain,
   the fingerprint of every probed key in probe order (at
   [encode_into]), and for a sequential solve the point in that order
   where each key's value was resolved. [sequences] maps fingerprints
   back to key indices. Replaying a sequence makes exactly the solve's
   probes in the solve's order: a key's first probe claims it, its
   resolve event resolves it to its index, and every later probe must
   return that index. A sequence without resolve events (a parallel
   solve's) resolves each key as soon as it claims it. Each probe and
   each resolve is timed on its own, net of one clock read; a miss
   costs its claim and its resolve. *)

type t = {
  claims : int;  (* probes that claimed their key: the distinct keys *)
  hits : int;  (* probes answered by a resolved value or a live claim *)
  busy : int;  (* probes answered by a live claim *)
  wrong : int;  (* probes or resolves that broke the claim-once contract *)
  miss_ns : float;  (* per claim, resolve included *)
  hit_ns : float;
  total_s : float;  (* every probe's time, summed over participants *)
}

(* One domain's traffic as key indices: its probes, and its resolves as
   (probes made before, key). *)
type seq = { probes : int array; resolves : (int * int) array }

let now_ns = Layers.now_ns

(* [sequences keys traffic] maps each domain's (probe fingerprints,
   resolves) to key indices. Two keys sharing a fingerprint, or a probed
   key that was never captured, make the replay meaningless and are
   errors. *)
let sequences keys traffic =
  let tbl = Hashtbl.create (Array.length keys) in
  let collide = ref false in
  Array.iteri
    (fun i k ->
      let f = Par.Slice_tbl.hash_string k in
      if Hashtbl.mem tbl f then collide := true else Hashtbl.replace tbl f i)
    keys;
  let index = Hashtbl.find tbl in
  if !collide then Error "two captured keys share a fingerprint"
  else
    try
      Ok
        (List.map
           (fun (fps, resolves) ->
             {
               probes = Array.map index fps;
               resolves = Array.map (fun (j, fp) -> (j, index fp)) resolves;
             })
           traffic)
    with Not_found -> Error "a probed key was never captured"

(* The outcome codes a backend's [probe] returns. *)
let claimed = 0
let hit = 1
let busy = 2

type acc = {
  mutable a_claims : int;
  mutable a_resolves : int;
  mutable a_hits : int;
  mutable a_busy : int;
  mutable a_wrong : int;
  mutable a_miss_ns : int;
  mutable a_hit_ns : int;
}

(* [probe data len i out] claims key [i] or reads its value into
   [out.(0)]; [resolve i] resolves a key [probe] claimed. *)
let play ~probe ~resolve keys seq =
  let a =
    {
      a_claims = 0;
      a_resolves = 0;
      a_hits = 0;
      a_busy = 0;
      a_wrong = 0;
      a_miss_ns = 0;
      a_hit_ns = 0;
    }
  in
  let deferred = Array.length seq.resolves > 0 in
  let next = ref 0 in
  let resolve_due j =
    while
      !next < Array.length seq.resolves && fst seq.resolves.(!next) <= j
    do
      let i = snd seq.resolves.(!next) in
      let t0 = now_ns () in
      resolve i;
      a.a_miss_ns <- a.a_miss_ns + (now_ns () - t0);
      a.a_resolves <- a.a_resolves + 1;
      incr next
    done
  in
  let out = [| 0.0 |] in
  Array.iteri
    (fun j i ->
      resolve_due j;
      let k = keys.(i) in
      let t0 = now_ns () in
      let o = probe (Bytes.unsafe_of_string k) (String.length k) i out in
      if o = claimed && not deferred then resolve i;
      let dt = now_ns () - t0 in
      if o = claimed then begin
        a.a_claims <- a.a_claims + 1;
        a.a_miss_ns <- a.a_miss_ns + dt
      end
      else begin
        a.a_hits <- a.a_hits + 1;
        a.a_hit_ns <- a.a_hit_ns + dt;
        if o = busy then a.a_busy <- a.a_busy + 1
        else if out.(0) <> float_of_int i then a.a_wrong <- a.a_wrong + 1
      end)
    seq.probes;
  resolve_due max_int;
  if deferred && a.a_resolves <> a.a_claims then
    a.a_wrong <- a.a_wrong + abs (a.a_resolves - a.a_claims);
  a

let summarize ~clock_ns accs =
  let sum f = List.fold_left (fun s a -> s + f a) 0 accs in
  let claims = sum (fun a -> a.a_claims) and hits = sum (fun a -> a.a_hits) in
  let net ns n =
    Float.max 0.0 (float_of_int ns -. (float_of_int n *. clock_ns))
  in
  let resolves = sum (fun a -> a.a_resolves) in
  let miss = net (sum (fun a -> a.a_miss_ns)) (claims + resolves)
  and hitt = net (sum (fun a -> a.a_hit_ns)) hits in
  let per x n = if n = 0 then 0.0 else x /. float_of_int n in
  {
    claims;
    hits;
    busy = sum (fun a -> a.a_busy);
    wrong = sum (fun a -> a.a_wrong);
    miss_ns = per miss claims;
    hit_ns = per hitt hits;
    total_s = (miss +. hitt) /. 1e9;
  }

let joined seqs =
  {
    probes = Array.concat (List.map (fun s -> s.probes) seqs);
    resolves =
      (let base = ref 0 in
       Array.concat
         (List.map
            (fun s ->
              let b = !base in
              base := b + Array.length s.probes;
              Array.map (fun (j, i) -> (b + j, i)) s.resolves)
            seqs));
  }

(* [participants] sequences played concurrently, one per domain (the
   caller plus spawned ones), started together by a spin barrier. A
   solve recorded on that many domains replays each domain's own
   sequence; otherwise the probes are joined and dealt out round robin,
   each key resolved as soon as it is claimed. *)
let play_on ~participants ~probe ~resolve keys seqs =
  let seqs =
    if List.length seqs = participants then seqs
    else
      let all = (joined seqs).probes in
      List.init participants (fun d ->
          {
            probes =
              Array.init
                ((Array.length all - d + participants - 1) / participants)
                (fun j -> all.(d + (j * participants)));
            resolves = [||];
          })
  in
  let arrived = Atomic.make 0 in
  let run d seq () =
    Atomic.incr arrived;
    while Atomic.get arrived < participants do
      Domain.cpu_relax ()
    done;
    play ~probe:(probe ~owner:d) ~resolve keys seq
  in
  match seqs with
  | [] -> []
  | own :: others ->
      let spawned =
        List.mapi (fun d s -> Domain.spawn (run (d + 1) s)) others
      in
      let mine = run 0 own () in
      mine :: List.map Domain.join spawned

let slice_tbl ~clock_ns keys seqs =
  let t = Par.Slice_tbl.create ~size:65_536 () in
  let none = { Par.Slice_tbl.hash = 0; key = ""; value = Float.nan } in
  let pending = Array.make (Array.length keys) none in
  let probe data len i out =
    let e = Par.Slice_tbl.probe_slice t data ~len ~default:Float.nan in
    if Par.Slice_tbl.last_was_new t then begin
      pending.(i) <- e;
      claimed
    end
    else begin
      out.(0) <- e.value;
      hit
    end
  in
  let resolve i = pending.(i).value <- float_of_int i in
  summarize ~clock_ns [ play ~probe ~resolve keys (joined seqs) ]

(* The find-or-claim protocol shared by the sharded table and the
   store: a claimed key is kept until its resolve. *)
let claim_protocol ~find_or_claim ~resolve keys =
  let pending = Array.make (Array.length keys) "" in
  let probe ~owner data len i out =
    match find_or_claim data ~len ~owner with
    | `Claimed key ->
        pending.(i) <- key;
        claimed
    | `Value v ->
        out.(0) <- v;
        hit
    | `Busy _ -> busy
  in
  (probe, fun i -> resolve pending.(i) (float_of_int i))

let sharded ~clock_ns ~participants keys seqs =
  let t : float Par.Sharded_tbl.t = Par.Sharded_tbl.create () in
  let probe, resolve =
    claim_protocol
      ~find_or_claim:(Par.Sharded_tbl.find_or_claim_slice t)
      ~resolve:(Par.Sharded_tbl.resolve t) keys
  in
  summarize ~clock_ns (play_on ~participants ~probe ~resolve keys seqs)

(* The out-of-core store under [budget], and its telemetry after the
   replay; its files go to a fresh directory under the temp dir, removed
   again on close. *)
let store ~clock_ns ~budget keys seqs =
  let st = Store.Memo.create ~budget () in
  Fun.protect
    ~finally:(fun () -> Store.Memo.close st)
    (fun () ->
      let probe, resolve =
        claim_protocol ~find_or_claim:(Store.Memo.find_or_claim_slice st)
          ~resolve:(Store.Memo.resolve st) keys
      in
      let r =
        summarize ~clock_ns
          [ play ~probe:(probe ~owner:0) ~resolve keys (joined seqs) ]
      in
      (r, Store.Memo.stats st))
