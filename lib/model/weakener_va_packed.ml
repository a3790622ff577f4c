(* The in-place presentation of {!Weakener_va}: the same game, packed
   into one mutable int array and solved by {!Mdp.Solver.Make_inplace}.
   Every mutation goes through a trail journal of (cell, old value)
   pairs — the constraint-solver idiom — so exploring a child is
   do-move / recurse / rewind instead of allocating a successor record
   tree per edge. The pure module stays the specification: move ids,
   branch orders, probabilities and the canonical encoding here must
   agree with it exactly (the lockstep tests drive both presentations
   through identical walks and compare encodings byte-for-byte), which
   makes the two solvers' values bit-identical.

   Cell layout ([k] fixed at [init]):

     0                cread present (0/1 — [Some (-1)] is reachable when
                      p2 reads C before the coin was written, so -1
                      cannot double as the absence marker)
     1                cread value
     2, 3             coin, creg (-1 = unset)
     4 + 3p ..        Val[p] as (value, ts, ts-pid), p in 0..2
     13 + p*psz ..    process p's block, psz = 17 + 3k:
       +0  pc                +7..9   current collect's best (v, t, p)
       +1  op present        +10..12 write payload (v, t, p)
       +2  kind (0 R, 1 W)   +13     #results
       +3  write value       +14     #reads
       +5  collect index     +15..16 p2's C-read outcomes
       +6  collect position  +17..   results, sorted, 3 ints each

   Completed ops leave their block's fields stale rather than zeroing
   them: [start_op] rewrites every field it reads and the encoder only
   walks live fields, so stale cells can neither leak into a key nor
   into a transition. *)

module Game = struct
  type state = {
    k : int;
    psz : int;  (* process block stride: 17 + 3k *)
    cells : int array;
    mutable j_idx : int array;  (* trail: cell index / old value pairs *)
    mutable j_old : int array;
    mutable j_len : int;
  }

  type undo = int  (* trail watermark *)

  let c_cread_p = 0
  let c_cread_v = 1
  let c_coin = 2
  let c_creg = 3
  let val_base p = 4 + (3 * p)
  let proc_base s p = 13 + (p * s.psz)

  (* process-block offsets *)
  let o_pc = 0
  let o_op = 1
  let o_kind = 2
  let o_wval = 3
  let o_phase = 4
  let o_idx = 5
  let o_pos = 6
  let o_best = 7
  let o_payload = 10
  let o_nres = 13
  let o_nreads = 14
  let o_reads = 15
  let o_res = 17
  let ph_choose = 1
  let ph_write = 2

  let[@inline] get s i = Array.unsafe_get s.cells i

  let grow_journal s =
    let n = Array.length s.j_idx in
    let idx = Array.make (2 * n) 0 and old = Array.make (2 * n) 0 in
    Array.blit s.j_idx 0 idx 0 n;
    Array.blit s.j_old 0 old 0 n;
    s.j_idx <- idx;
    s.j_old <- old

  let[@inline] set s i v =
    let old = Array.unsafe_get s.cells i in
    if old <> v then begin
      if s.j_len = Array.length s.j_idx then grow_journal s;
      Array.unsafe_set s.j_idx s.j_len i;
      Array.unsafe_set s.j_old s.j_len old;
      s.j_len <- s.j_len + 1;
      Array.unsafe_set s.cells i v
    end

  let checkpoint s = s.j_len

  (* rewind newest-first so a cell trailed twice gets its oldest value *)
  let restore s w =
    for l = s.j_len - 1 downto w do
      s.cells.(s.j_idx.(l)) <- s.j_old.(l)
    done;
    s.j_len <- w

  let outcome_impossible s =
    get s c_coin >= 0
    &&
    let b2 = proc_base s 2 in
    let n = get s (b2 + o_nreads) in
    n >= 1
    && (get s (b2 + o_reads) <> get s c_coin
       || (n >= 2 && get s (b2 + o_reads + 1) <> 1 - get s c_coin))

  let live s p =
    let b = proc_base s p in
    get s (b + o_op) = 1
    ||
    match (p, get s (b + o_pc)) with
    | 0, 0 -> true
    | 1, (0 | 1 | 2) -> true
    | 2, (0 | 1 | 2) -> true
    | _ -> false

  let moves s =
    if get s (proc_base s 2 + o_pc) >= 3 then 0
    else if outcome_impossible s then 0
    else
      (if live s 0 then 1 else 0)
      lor (if live s 1 then 2 else 0)
      lor (if live s 2 then 4 else 0)

  let branches s p =
    let b = proc_base s p in
    if get s (b + o_op) = 1 then
      if get s (b + o_phase) = ph_choose then get s (b + o_nres) else 0
    else if p = 1 && get s (b + o_pc) = 1 then 2
    else 0

  (* same float expressions as the pure distributions: 1/|results| for
     the object's uniform choice, 0.5 for the coin *)
  let prob s p _j =
    let b = proc_base s p in
    if get s (b + o_op) = 1 then 1.0 /. float_of_int (get s (b + o_nres))
    else 0.5

  let ts_lt t1 p1 t2 p2 = t1 < t2 || (t1 = t2 && p1 < p2)

  let cmp_vts v1 t1 p1 v2 t2 p2 =
    if v1 <> v2 then if v1 < v2 then -1 else 1
    else if t1 <> t2 then if t1 < t2 then -1 else 1
    else if p1 < p2 then -1
    else if p1 > p2 then 1
    else 0

  let start_op s b kind wval =
    set s (b + o_op) 1;
    set s (b + o_kind) kind;
    set s (b + o_wval) wval;
    set s (b + o_phase) 0;
    set s (b + o_idx) 0;
    set s (b + o_pos) 0;
    set s (b + o_best) (-1);
    set s (b + o_best + 1) 0;
    set s (b + o_best + 2) 0;
    set s (b + o_nres) 0

  (* sorted insert at the [List.sort]-stable position: before the first
     existing entry that is >= the new one (equal entries are identical
     triples, so stability is only about matching the spec exactly) *)
  let insert_result s b v t p =
    let n = get s (b + o_nres) in
    let pos = ref 0 in
    while
      !pos < n
      &&
      let e = b + o_res + (3 * !pos) in
      cmp_vts (get s e) (get s (e + 1)) (get s (e + 2)) v t p < 0
    do
      incr pos
    done;
    for r = n - 1 downto !pos do
      let src = b + o_res + (3 * r) and dst = b + o_res + (3 * (r + 1)) in
      set s dst (get s src);
      set s (dst + 1) (get s (src + 1));
      set s (dst + 2) (get s (src + 2))
    done;
    let e = b + o_res + (3 * !pos) in
    set s e v;
    set s (e + 1) t;
    set s (e + 2) p;
    set s (b + o_nres) (n + 1)

  let apply s ~move:p ~branch:j =
    let b = proc_base s p in
    if get s (b + o_op) = 1 then
      match get s (b + o_phase) with
      | 0 ->
          (* one single-step cell read of the current collect *)
          let pos = get s (b + o_pos) in
          let vb = val_base pos in
          let cv = get s vb and ct = get s (vb + 1) and cp = get s (vb + 2) in
          let bt = get s (b + o_best + 1) and bp = get s (b + o_best + 2) in
          let nv, nt, np =
            if ts_lt bt bp ct cp then (cv, ct, cp)
            else (get s (b + o_best), bt, bp)
          in
          if pos + 1 < 3 then begin
            set s (b + o_pos) (pos + 1);
            set s (b + o_best) nv;
            set s (b + o_best + 1) nt;
            set s (b + o_best + 2) np
          end
          else begin
            insert_result s b nv nt np;
            if get s (b + o_idx) + 1 < s.k then begin
              set s (b + o_idx) (get s (b + o_idx) + 1);
              set s (b + o_pos) 0;
              set s (b + o_best) (-1);
              set s (b + o_best + 1) 0;
              set s (b + o_best + 2) 0
            end
            else set s (b + o_phase) ph_choose
          end
      | 1 ->
          (* the object's uniform choice: branch j picks results[j] *)
          let e = b + o_res + (3 * j) in
          if get s (b + o_kind) = 0 then begin
            let n = get s (b + o_nreads) in
            set s (b + o_reads + n) (get s e);
            set s (b + o_nreads) (n + 1);
            set s (b + o_pc) (get s (b + o_pc) + 1);
            set s (b + o_op) 0
          end
          else begin
            set s (b + o_phase) ph_write;
            set s (b + o_payload) (get s (b + o_wval));
            set s (b + o_payload + 1) (get s (e + 1) + 1);
            set s (b + o_payload + 2) p
          end
      | _ ->
          (* the single Val[p] write, then the op completes *)
          let vb = val_base p in
          set s vb (get s (b + o_payload));
          set s (vb + 1) (get s (b + o_payload + 1));
          set s (vb + 2) (get s (b + o_payload + 2));
          set s (b + o_pc) (get s (b + o_pc) + 1);
          set s (b + o_op) 0
    else
      match (p, get s (b + o_pc)) with
      | 0, 0 -> start_op s b 1 0
      | 1, 0 -> start_op s b 1 1
      | 1, 1 ->
          (* coin flip: branch 0 writes 0, branch 1 writes 1 *)
          set s c_coin j;
          set s (b + o_pc) 2
      | 1, 2 ->
          set s c_creg (get s c_coin);
          set s (b + o_pc) 3
      | 2, (0 | 1) -> start_op s b 0 0
      | 2, 2 ->
          set s c_cread_p 1;
          set s c_cread_v (get s c_creg);
          set s (b + o_pc) 3
      | _ -> assert false

  let terminal_value s =
    if get s c_cread_p = 1 then begin
      let c = get s c_cread_v in
      if c = 0 || c = 1 then begin
        let b2 = proc_base s 2 in
        if
          get s (b2 + o_nreads) = 2
          && get s (b2 + o_reads) = c
          && get s (b2 + o_reads + 1) = 1 - c
        then 1.0
        else 0.0
      end
      else 0.0
    end
    else 0.0

  (* Byte-identical to {!Weakener_va.Game.encode_into}: same fields in
     the same order through the same {!Mdp.Key} combinators ([bool]
     writes the option-presence byte — both are a raw 0/1). *)
  let enc_vts s kb i =
    Mdp.Key.int kb (get s i);
    Mdp.Key.int kb (get s (i + 1));
    Mdp.Key.int kb (get s (i + 2))

  let enc_results s kb b =
    let n = get s (b + o_nres) in
    Mdp.Key.int kb n;
    for r = 0 to n - 1 do
      enc_vts s kb (b + o_res + (3 * r))
    done

  let enc_pstate s kb b =
    Mdp.Key.int kb (get s (b + o_pc));
    (if get s (b + o_op) = 0 then Mdp.Key.bool kb false
     else begin
       Mdp.Key.bool kb true;
       (if get s (b + o_kind) = 0 then Mdp.Key.int kb 0
        else begin
          Mdp.Key.int kb 1;
          Mdp.Key.int kb (get s (b + o_wval))
        end);
       match get s (b + o_phase) with
       | 0 ->
           Mdp.Key.int kb 0;
           Mdp.Key.int kb (get s (b + o_idx));
           enc_results s kb b;
           Mdp.Key.int kb (get s (b + o_pos));
           enc_vts s kb (b + o_best)
       | 1 ->
           Mdp.Key.int kb 1;
           enc_results s kb b
       | _ ->
           Mdp.Key.int kb 2;
           enc_vts s kb (b + o_payload)
     end);
    let n = get s (b + o_nreads) in
    Mdp.Key.int kb n;
    for r = 0 to n - 1 do
      Mdp.Key.int kb (get s (b + o_reads + r))
    done

  let encode_into s kb =
    Mdp.Key.int kb s.k;
    enc_vts s kb (val_base 0);
    enc_vts s kb (val_base 1);
    enc_vts s kb (val_base 2);
    enc_pstate s kb (proc_base s 0);
    enc_pstate s kb (proc_base s 1);
    enc_pstate s kb (proc_base s 2);
    Mdp.Key.int kb (get s c_coin);
    Mdp.Key.int kb (get s c_creg);
    if get s c_cread_p = 0 then Mdp.Key.bool kb false
    else begin
      Mdp.Key.bool kb true;
      Mdp.Key.int kb (get s c_cread_v)
    end
end

module S = Mdp.Solver.Make_inplace (Game)

let init ~k : Game.state =
  if k < 1 then invalid_arg "Weakener_va_packed.init: k >= 1 required";
  let psz = 17 + (3 * k) in
  let cells = Array.make (13 + (3 * psz)) 0 in
  cells.(Game.c_coin) <- -1;
  cells.(Game.c_creg) <- -1;
  (* Val cells start at bottom = (-1, (0, 0)) *)
  for p = 0 to 2 do
    cells.(Game.val_base p) <- -1
  done;
  {
    Game.k;
    psz;
    cells;
    j_idx = Array.make 64 0;
    j_old = Array.make 64 0;
    j_len = 0;
  }

let copy (s : Game.state) : Game.state =
  {
    s with
    Game.cells = Array.copy s.Game.cells;
    j_idx = Array.copy s.Game.j_idx;
    j_old = Array.copy s.Game.j_old;
  }

let equal (a : Game.state) (b : Game.state) =
  a.Game.k = b.Game.k && a.Game.cells = b.Game.cells

let bad_probability ?memo_budget ~k () = S.value ?memo_budget (init ~k)

let store_stats () = S.store_stats ()
let explored_states () = S.explored ()
let reset () = S.reset ()
let solver_stats () = S.stats ()
let set_progress = S.set_progress
