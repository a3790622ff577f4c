(* Par.Slice_tbl on its own: the slice and string hashes agree and
   allocate nothing, probes and finds stay right across resizes, and
   the hash spreads near-identical keys over both the bucket bits and
   the shard-routing bits. *)

module T = Par.Slice_tbl

let random_bytes rng n =
  Bytes.init n (fun _ -> Char.chr (Random.State.int rng 256))

let test_hash_forms_agree () =
  let rng = Random.State.make [| 15 |] in
  for len = 0 to 300 do
    (* junk after [len] must not reach the slice hash *)
    let d = random_bytes rng (len + 1 + Random.State.int rng 16) in
    let h = T.hash_slice d len in
    if T.hash_string (Bytes.sub_string d 0 len) <> h then
      Alcotest.failf "len %d: string and slice hashes differ" len;
    for i = len to Bytes.length d - 1 do
      Bytes.set d i (Char.chr (Random.State.int rng 256))
    done;
    if T.hash_slice d len <> h then
      Alcotest.failf "len %d: bytes past the slice changed its hash" len
  done;
  let d = random_bytes rng 83 in
  let before = Gc.minor_words () in
  let acc = ref 0 in
  for i = 0 to 9_999 do
    acc := !acc lxor T.hash_slice d (i land 63) lxor T.hash_string "key:12345"
  done;
  let words = Gc.minor_words () -. before in
  if words > 100.0 then
    Alcotest.failf "20k hashes allocated %.0f minor words (%d)" words !acc

let key i = "k" ^ string_of_int i

let test_probe_find_across_grows () =
  let t : int T.t = T.create ~size:16 () in
  let n = 5_000 in
  (* 16 buckets to over 4096: nine doublings *)
  for i = 0 to n - 1 do
    let k = key i in
    let e =
      if i land 1 = 0 then
        T.probe_slice t (Bytes.of_string (k ^ "junk")) ~len:(String.length k)
          ~default:i
      else T.probe_string t k ~default:i
    in
    if not (T.last_was_new t) then
      Alcotest.failf "key %d: first probe did not insert" i;
    if e.T.key <> k || e.T.value <> i || e.T.hash <> T.hash_string k then
      Alcotest.failf "key %d: wrong fresh entry" i
  done;
  Alcotest.(check int) "length" n (T.length t);
  for i = 0 to n - 1 do
    let k = key i in
    let b = Bytes.of_string k in
    let len = String.length k in
    let e = T.probe_slice t b ~len ~default:(-1) in
    if T.last_was_new t || e.T.value <> i then
      Alcotest.failf "key %d: re-probe inserted or lost its value" i;
    if T.probe_string t k ~default:(-1) != e || T.last_was_new t then
      Alcotest.failf "key %d: string probe found another entry" i;
    let hash = T.hash_string k in
    match
      ( T.find_slice_hashed t ~hash b ~len,
        T.find_string_hashed t ~hash k,
        T.find_string t k )
    with
    | Some e1, Some e2, Some e3 when e1 == e && e2 == e && e3 == e -> ()
    | _ -> Alcotest.failf "key %d: find misses its entry" i
  done;
  Alcotest.(check int) "re-probes insert nothing" n (T.length t);
  Alcotest.(check bool) "absent key" true (T.find_string t "absent" = None);
  let seen = Array.make n 0 in
  T.iter t (fun k v ->
      if k <> key v then Alcotest.failf "iter: %s bound to %d" k v;
      seen.(v) <- seen.(v) + 1);
  Array.iteri
    (fun i c ->
      if c <> 1 then Alcotest.failf "iter visited key %d %d times" i c)
    seen;
  T.clear t;
  Alcotest.(check int) "clear empties" 0 (T.length t);
  Alcotest.(check bool)
    "cleared key gone" true
    (T.find_string t (key 7) = None);
  T.clear t;
  ignore (T.probe_string t (key 7) ~default:7);
  Alcotest.(check bool) "insert after clear" true (T.last_was_new t);
  Alcotest.(check int) "one binding" 1 (T.length t)

(* 100 044 keys, each the same 397-byte base with one byte changed (every
   position, 252 values each; 397 = 49 words + a 5-byte tail): the
   avalanche must spread them over all 128 shard indices (bits 17 and
   up, as Sharded_tbl routes) and over the low-bit buckets, and no two
   may share the full hash. *)
let test_hash_spreads_near_keys () =
  let rng = Random.State.make [| 42 |] in
  let base = random_bytes rng 397 in
  let shards = Array.make 128 0 and buckets = Array.make 1024 0 in
  let hashes = Hashtbl.create 100_000 in
  let d = Bytes.copy base in
  for p = 0 to Bytes.length base - 1 do
    let b0 = Char.code (Bytes.get base p) in
    for v = 1 to 252 do
      Bytes.set d p (Char.chr ((b0 + v) land 255));
      let h = T.hash_slice d (Bytes.length d) in
      if Hashtbl.mem hashes h then
        Alcotest.failf "full-hash collision at byte %d" p;
      Hashtbl.replace hashes h ();
      let s = (h lsr 17) land 127 and b = h land 1023 in
      shards.(s) <- shards.(s) + 1;
      buckets.(b) <- buckets.(b) + 1
    done;
    Bytes.set d p (Bytes.get base p)
  done;
  let n = Hashtbl.length hashes in
  Alcotest.(check int) "key count" 100_044 n;
  (* every bin within 5 sigma of the mean, and the chi-square statistic
     within 6 sigma of its expectation (k - 1 for k bins) *)
  let near name counts =
    let k = float_of_int (Array.length counts) in
    let mean = float_of_int n /. k in
    let chi2 = ref 0.0 in
    Array.iteri
      (fun i c ->
        let c = float_of_int c in
        chi2 := !chi2 +. ((c -. mean) ** 2.0 /. mean);
        if Float.abs (c -. mean) > 5.0 *. sqrt mean then
          Alcotest.failf "%s %d holds %.0f keys (mean %.1f)" name i c mean)
      counts;
    if !chi2 > k -. 1.0 +. (6.0 *. sqrt (2.0 *. (k -. 1.0))) then
      Alcotest.failf "%s chi-square %.0f over %.0f bins" name !chi2 k
  in
  near "shard" shards;
  near "bucket" buckets

let tests =
  [
    Alcotest.test_case "hash: slice = string, allocation-free" `Quick
      test_hash_forms_agree;
    Alcotest.test_case "probe/find/iter across grows" `Quick
      test_probe_find_across_grows;
    Alcotest.test_case "hash spreads one-byte variants" `Quick
      test_hash_spreads_near_keys;
  ]
