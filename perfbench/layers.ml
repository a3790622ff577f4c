(* Outside-in timing of the solver's game and key layers.

   The wrappers below satisfy the solver's own GAME / GAME_INPLACE
   signatures, so [Mdp.Solver.Make (Game (G))] runs the unmodified
   evaluator over a game whose every [moves], [apply], undo and
   [encode_into] call is timed. Nothing inside lib/ is instrumented.

   Counters live in one record per domain, reached through Domain.DLS,
   so the parallel solver's workers never share a cache line or a lock
   while traced. [snapshot] reads them once the solve has returned.

   The wrappers also record what {!Replay} needs to play the solve's
   memo traffic back, and time that as [capture_ns], apart from the
   layers' time:
   - each [moves] call captures the state's key (encoded a second
     time): a solver calls [moves] once per state it evaluates, so the
     captured set is the workload's distinct key set;
   - each [encode_into] call, made once per memo probe, records the
     key's fingerprint, in probe order;
   - with [track_resolves] set, for a sequential solve, the point in
     the probe order where each evaluated state's value is resolved.
     The sequential evaluators are depth-first: a state is resolved
     once the last of its children is, before its parent's next probe
     or move. The pure wrapper finds a probed state's parent among the
     states the open states' latest [apply] produced; the in-place one
     tracks the depth of nested [checkpoint]s. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* A growable int array. *)
type vec = { mutable a : int array; mutable n : int }

let vec () = { a = Array.make 1024 0; n = 0 }

let push v x =
  if v.n = Array.length v.a then begin
    let b = Array.make (2 * v.n) 0 in
    Array.blit v.a 0 b 0 v.n;
    v.a <- b
  end;
  v.a.(v.n) <- x;
  v.n <- v.n + 1

let track_resolves = ref false

type counters = {
  domain : int;
  mutable moves_calls : int;
  mutable moves_ns : int;
  mutable moves_aux_calls : int;  (* in-place [branches] and [prob] *)
  mutable apply_calls : int;
  mutable apply_ns : int;
  mutable undo_calls : int;
  mutable undo_ns : int;
  mutable encode_calls : int;
  mutable encode_ns : int;
  mutable capture_ns : int;
  captured : Buffer.t;  (* keys, each prefixed by its 32-bit length *)
  capbuf : Mdp.Key.buf;
  mutable probes : vec;  (* fingerprints, in probe order *)
  mutable resolve_after : vec;  (* probes made before each resolve *)
  mutable resolved : vec;  (* fingerprints, in resolve order *)
}

let registry : counters list ref = ref []
let registry_lock = Mutex.create ()

let fresh () =
  let c =
    {
      domain = (Domain.self () :> int);
      moves_calls = 0;
      moves_ns = 0;
      moves_aux_calls = 0;
      apply_calls = 0;
      apply_ns = 0;
      undo_calls = 0;
      undo_ns = 0;
      encode_calls = 0;
      encode_ns = 0;
      capture_ns = 0;
      captured = Buffer.create 4096;
      capbuf = Mdp.Key.create ();
      probes = vec ();
      resolve_after = vec ();
      resolved = vec ();
    }
  in
  Mutex.protect registry_lock (fun () -> registry := c :: !registry);
  c

let slot = Domain.DLS.new_key fresh

(* Only while no traced solve runs. *)
let reset () =
  Mutex.protect registry_lock (fun () ->
      List.iter
        (fun c ->
          c.moves_calls <- 0;
          c.moves_ns <- 0;
          c.moves_aux_calls <- 0;
          c.apply_calls <- 0;
          c.apply_ns <- 0;
          c.undo_calls <- 0;
          c.undo_ns <- 0;
          c.encode_calls <- 0;
          c.encode_ns <- 0;
          c.capture_ns <- 0;
          Buffer.reset c.captured;
          c.probes <- vec ();
          c.resolve_after <- vec ();
          c.resolved <- vec ())
        !registry)

(* One domain's totals after a traced solve; domains that made no call
   are left out. *)
type domain_totals = {
  domain_id : int;
  moves_calls : int;
  moves_ns : int;
  moves_aux_calls : int;
  apply_calls : int;
  apply_ns : int;
  undo_calls : int;
  undo_ns : int;
  encode_calls : int;
  encode_ns : int;
  capture_ns : int;
  probe_fingerprints : int array;
  resolves : (int * int) array;  (* (probes made before, fingerprint) *)
}

let snapshot () =
  let contents v = Array.sub v.a 0 v.n in
  Mutex.protect registry_lock (fun () ->
      List.filter_map
        (fun (c : counters) ->
          if c.moves_calls + c.apply_calls + c.encode_calls = 0 then None
          else
            Some
              {
                domain_id = c.domain;
                moves_calls = c.moves_calls;
                moves_ns = c.moves_ns;
                moves_aux_calls = c.moves_aux_calls;
                apply_calls = c.apply_calls;
                apply_ns = c.apply_ns;
                undo_calls = c.undo_calls;
                undo_ns = c.undo_ns;
                encode_calls = c.encode_calls;
                encode_ns = c.encode_ns;
                capture_ns = c.capture_ns;
                probe_fingerprints = contents c.probes;
                resolves =
                  Array.init c.resolved.n (fun j ->
                      (c.resolve_after.a.(j), c.resolved.a.(j)));
              })
        !registry)
  |> List.sort (fun a b -> compare a.domain_id b.domain_id)

(* The captured keys of every domain, duplicates removed, in capture
   order (domain by domain). The parallel solver calls [moves] again on
   frontier states and on states it helps with, hence the dedup. *)
let captured_keys () =
  let seen = Hashtbl.create 65_536 in
  let out = ref [] in
  Mutex.protect registry_lock (fun () ->
      List.iter
        (fun c ->
          let b = Buffer.to_bytes c.captured in
          let pos = ref 0 in
          while !pos < Bytes.length b do
            let len = Int32.to_int (Bytes.get_int32_le b !pos) in
            let key = Bytes.sub_string b (!pos + 4) len in
            pos := !pos + 4 + len;
            if not (Hashtbl.mem seen key) then begin
              Hashtbl.add seen key ();
              out := key :: !out
            end
          done)
        (List.sort (fun a b -> compare a.domain b.domain) !registry));
  Array.of_list (List.rev !out)

let fingerprint b =
  Par.Slice_tbl.hash_slice (Mdp.Key.data b) (Mdp.Key.length b)

(* The key of the state [moves] was called on, appended to the captured
   keys; its fingerprint is returned. *)
let capture (c : counters) encode_into s =
  let b = c.capbuf in
  Mdp.Key.reset b;
  encode_into s b;
  let len = Mdp.Key.length b in
  Buffer.add_int32_le c.captured (Int32.of_int len);
  Buffer.add_subbytes c.captured (Mdp.Key.data b) 0 len;
  fingerprint b

let record_resolve (c : counters) fp =
  push c.resolve_after c.probes.n;
  push c.resolved fp

module Game (G : Mdp.Solver.GAME) : sig
  include Mdp.Solver.GAME with type state = G.state and type move = G.move

  (** [finish ()] resolves the states still open on the calling domain
      when a sequential traced solve returns: the root and nothing
      else. *)
  val finish : unit -> unit
end = struct
  type state = G.state
  type move = G.move

  type transition = G.transition =
    | Det of state
    | Chance of (float * state) list

  (* an evaluated state whose value is not resolved yet, with the
     transition its latest [apply] returned *)
  type frame = { st : state; fp : int; mutable next : transition option }

  let frames : frame list ref Domain.DLS.key =
    Domain.DLS.new_key (fun () -> ref [])

  let rec mem_state x = function
    | [] -> false
    | (_, s) :: rest -> s == x || mem_state x rest

  let produced x f =
    match f.next with
    | Some (Det s) -> s == x
    | Some (Chance d) -> mem_state x d
    | None -> false

  (* Resolve the open states above the first one that [produced] [x]:
     every one, if none did, as for a root. *)
  let rec pop_to_parent c stack x =
    match !stack with
    | f :: rest when not (produced x f) ->
        record_resolve c f.fp;
        stack := rest;
        pop_to_parent c stack x
    | _ -> ()

  let rec pop_to_state c stack s =
    match !stack with
    | f :: rest when f.st != s ->
        record_resolve c f.fp;
        stack := rest;
        pop_to_state c stack s
    | _ -> ()

  let moves s =
    let c = Domain.DLS.get slot in
    let t0 = now_ns () in
    let r = G.moves s in
    let t1 = now_ns () in
    c.moves_ns <- c.moves_ns + (t1 - t0);
    c.moves_calls <- c.moves_calls + 1;
    let fp = capture c G.encode_into s in
    (if !track_resolves then
       match r with
       | [] -> record_resolve c fp
       | _ ->
           let stack = Domain.DLS.get frames in
           stack := { st = s; fp; next = None } :: !stack);
    c.capture_ns <- c.capture_ns + (now_ns () - t1);
    r

  let apply s m =
    let c = Domain.DLS.get slot in
    let t0 = now_ns () in
    let r = G.apply s m in
    let t1 = now_ns () in
    c.apply_ns <- c.apply_ns + (t1 - t0);
    c.apply_calls <- c.apply_calls + 1;
    if !track_resolves then begin
      let stack = Domain.DLS.get frames in
      pop_to_state c stack s;
      (match !stack with f :: _ -> f.next <- Some r | [] -> ());
      c.capture_ns <- c.capture_ns + (now_ns () - t1)
    end;
    r

  let encode_into s b =
    let c = Domain.DLS.get slot in
    let t0 = now_ns () in
    G.encode_into s b;
    let t1 = now_ns () in
    c.encode_ns <- c.encode_ns + (t1 - t0);
    c.encode_calls <- c.encode_calls + 1;
    if !track_resolves then pop_to_parent c (Domain.DLS.get frames) s;
    push c.probes (fingerprint b);
    c.capture_ns <- c.capture_ns + (now_ns () - t1)

  let finish () =
    let c = Domain.DLS.get slot in
    let stack = Domain.DLS.get frames in
    List.iter (fun f -> record_resolve c f.fp) !stack;
    stack := []

  let terminal_value = G.terminal_value
  let encode = G.encode
  let pp_move = G.pp_move
end

(* In-place games: [moves], [branches] and [prob] (enumerating a state's
   successors) count as moves time, [apply] as apply time, [checkpoint]
   and [restore] as undo time. *)
module Inplace (G : Mdp.Solver.GAME_INPLACE) : sig
  include
    Mdp.Solver.GAME_INPLACE with type state = G.state and type undo = G.undo

  (** See {!Game.finish}. *)
  val finish : unit -> unit
end = struct
  type state = G.state
  type undo = G.undo

  (* the nesting depth of [checkpoint]s, and the open states with the
     depth each was probed at *)
  type track = { mutable depth : int; frames : (int * int) list ref }

  let track = Domain.DLS.new_key (fun () -> { depth = 0; frames = ref [] })

  (* resolve the open states probed at depth [d] or deeper *)
  let rec pop_to_depth c stack d =
    match !stack with
    | (d', fp) :: rest when d' >= d ->
        record_resolve c fp;
        stack := rest;
        pop_to_depth c stack d
    | _ -> ()

  let moves s =
    let c = Domain.DLS.get slot in
    let t0 = now_ns () in
    let r = G.moves s in
    let t1 = now_ns () in
    c.moves_ns <- c.moves_ns + (t1 - t0);
    c.moves_calls <- c.moves_calls + 1;
    let fp = capture c G.encode_into s in
    (if !track_resolves then
       if r = 0 then record_resolve c fp
       else
         let t = Domain.DLS.get track in
         t.frames := (t.depth, fp) :: !(t.frames));
    c.capture_ns <- c.capture_ns + (now_ns () - t1);
    r

  let branches s m =
    let c = Domain.DLS.get slot in
    let t0 = now_ns () in
    let r = G.branches s m in
    c.moves_ns <- c.moves_ns + (now_ns () - t0);
    c.moves_aux_calls <- c.moves_aux_calls + 1;
    r

  let prob s m j =
    let c = Domain.DLS.get slot in
    let t0 = now_ns () in
    let r = G.prob s m j in
    c.moves_ns <- c.moves_ns + (now_ns () - t0);
    c.moves_aux_calls <- c.moves_aux_calls + 1;
    r

  let checkpoint s =
    let c = Domain.DLS.get slot in
    let t0 = now_ns () in
    let r = G.checkpoint s in
    c.undo_ns <- c.undo_ns + (now_ns () - t0);
    c.undo_calls <- c.undo_calls + 1;
    let t = Domain.DLS.get track in
    t.depth <- t.depth + 1;
    r

  let apply s ~move ~branch =
    let c = Domain.DLS.get slot in
    let t0 = now_ns () in
    G.apply s ~move ~branch;
    c.apply_ns <- c.apply_ns + (now_ns () - t0);
    c.apply_calls <- c.apply_calls + 1

  let restore s u =
    let c = Domain.DLS.get slot in
    let t0 = now_ns () in
    G.restore s u;
    c.undo_ns <- c.undo_ns + (now_ns () - t0);
    c.undo_calls <- c.undo_calls + 1;
    let t = Domain.DLS.get track in
    t.depth <- t.depth - 1

  let encode_into s b =
    let c = Domain.DLS.get slot in
    let t0 = now_ns () in
    G.encode_into s b;
    let t1 = now_ns () in
    c.encode_ns <- c.encode_ns + (t1 - t0);
    c.encode_calls <- c.encode_calls + 1;
    if !track_resolves then begin
      let t = Domain.DLS.get track in
      pop_to_depth c t.frames t.depth
    end;
    push c.probes (fingerprint b);
    c.capture_ns <- c.capture_ns + (now_ns () - t1)

  let finish () =
    let c = Domain.DLS.get slot in
    let t = Domain.DLS.get track in
    pop_to_depth c t.frames min_int

  let terminal_value = G.terminal_value
end

(* The cost of one [now_ns] read, which every timed interval includes
   once: the median of eleven batches of back-to-back reads. *)
let clock_cost_ns () =
  let batch = 20_000 in
  let samples =
    Array.init 11 (fun _ ->
        let t0 = now_ns () in
        for _ = 1 to batch do
          ignore (Sys.opaque_identity (now_ns ()))
        done;
        float_of_int (now_ns () - t0) /. float_of_int batch)
  in
  Array.sort compare samples;
  samples.(5)
