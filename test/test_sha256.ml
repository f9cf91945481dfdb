(* FIPS 180-4 vectors plus incremental-feeding properties. *)

module Sha256 = Oasis_crypto.Sha256

let hex s = Sha256.to_hex (Sha256.digest_string s)

let test_fips_vectors () =
  Alcotest.(check string) "empty" "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (hex "");
  Alcotest.(check string) "abc" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (hex "abc");
  Alcotest.(check string) "two blocks"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (hex "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  Alcotest.(check string) "448-bit boundary"
    "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
    (hex "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu")

let test_million_a () =
  let ctx = Sha256.init () in
  for _ = 1 to 10_000 do
    Sha256.feed_string ctx (String.make 100 'a')
  done;
  Alcotest.(check string) "million a"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.to_hex (Sha256.finalize ctx))

(* The chunked form of the same vector: chunk sizes below, at and just past
   the 64-byte block keep the partial-block top-up, the whole-block path
   straight from the source, and their hand-over in play. *)
let test_million_a_chunked () =
  let million = String.make 1_000_000 'a' in
  List.iter
    (fun chunk ->
      let ctx = Sha256.init () in
      let pos = ref 0 in
      while !pos < 1_000_000 do
        let len = min chunk (1_000_000 - !pos) in
        Sha256.feed_string ctx (String.sub million !pos len);
        pos := !pos + len
      done;
      Alcotest.(check string)
        (Printf.sprintf "million a in %d-byte chunks" chunk)
        "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        (Sha256.to_hex (Sha256.finalize ctx)))
    [ 7; 63; 64; 65 ]

(* One-shot hashing equals every two-way split, for every length through
   two blocks plus padding; the tail is fed whole, or as a range of a
   larger buffer (odd cuts). *)
let test_every_split () =
  for len = 0 to 130 do
    let s = String.init len (fun i -> Char.chr (((i * 31) + len) land 255)) in
    let whole = Sha256.digest_string s in
    for cut = 0 to len do
      let ctx = Sha256.init () in
      Sha256.feed_string ctx (String.sub s 0 cut);
      if cut land 1 = 0 then Sha256.feed_bytes ctx (Bytes.of_string (String.sub s cut (len - cut)))
      else Sha256.feed_sub ctx (Bytes.of_string (s ^ "trailing")) cut (len - cut);
      if not (Sha256.equal (Sha256.finalize ctx) whole) then
        Alcotest.failf "length %d split at %d differs from one-shot" len cut
    done
  done

let test_incremental_equals_oneshot () =
  let property (chunks : string list) =
    let whole = String.concat "" chunks in
    let ctx = Sha256.init () in
    List.iter (Sha256.feed_string ctx) chunks;
    Sha256.equal (Sha256.finalize ctx) (Sha256.digest_string whole)
  in
  let gen = QCheck.(list_of_size Gen.(int_bound 8) (string_of_size Gen.(int_bound 200))) in
  QCheck.Test.check_exn (QCheck.Test.make ~count:200 ~name:"incremental = oneshot" gen property)

let test_padding_boundaries () =
  (* Lengths straddling the 55/56/64-byte padding edges. *)
  List.iter
    (fun n ->
      let s = String.make n 'x' in
      let ctx = Sha256.init () in
      Sha256.feed_string ctx s;
      Alcotest.(check bool)
        (Printf.sprintf "len %d" n)
        true
        (Sha256.equal (Sha256.finalize ctx) (Sha256.digest_string s)))
    [ 0; 1; 54; 55; 56; 57; 63; 64; 65; 119; 120; 127; 128 ]

let test_finalize_twice_raises () =
  let ctx = Sha256.init () in
  ignore (Sha256.finalize ctx);
  Alcotest.check_raises "finalize twice" (Invalid_argument "Sha256: context already finalized")
    (fun () -> ignore (Sha256.finalize ctx))

let test_feed_after_finalize_raises () =
  let ctx = Sha256.init () in
  ignore (Sha256.finalize ctx);
  Alcotest.check_raises "feed after finalize" (Invalid_argument "Sha256: context already finalized")
    (fun () -> Sha256.feed_string ctx "x")

let test_feed_sub_bounds () =
  let ctx = Sha256.init () and b = Bytes.make 8 'x' in
  List.iter
    (fun (pos, len) ->
      Alcotest.check_raises
        (Printf.sprintf "pos %d len %d" pos len)
        (Invalid_argument "Sha256.feed_sub")
        (fun () -> Sha256.feed_sub ctx b pos len))
    [ (-1, 1); (0, -1); (0, 9); (5, 4); (9, 0) ];
  Sha256.feed_sub ctx b 8 0;
  Alcotest.(check bool) "nothing was fed" true
    (Sha256.equal (Sha256.finalize ctx) (Sha256.digest_string ""))

let test_raw_string () =
  let d = Sha256.digest_string "abc" in
  let raw = Sha256.to_raw_string d in
  Alcotest.(check int) "32 bytes" 32 (String.length raw);
  (match Sha256.of_raw_string raw with
  | Some d2 -> Alcotest.(check bool) "roundtrip" true (Sha256.equal d d2)
  | None -> Alcotest.fail "of_raw_string failed");
  Alcotest.(check bool) "wrong size rejected" true (Sha256.of_raw_string "short" = None)

let test_equal_constant_time_semantics () =
  let a = Sha256.digest_string "a" and b = Sha256.digest_string "b" in
  Alcotest.(check bool) "unequal digests" false (Sha256.equal a b);
  Alcotest.(check bool) "equal digests" true (Sha256.equal a (Sha256.digest_string "a"))

let test_avalanche () =
  (* One flipped bit changes roughly half the output bits. *)
  let d1 = Sha256.to_raw_string (Sha256.digest_string "avalanche0")
  and d2 = Sha256.to_raw_string (Sha256.digest_string "avalanche1") in
  let diff = ref 0 in
  String.iteri
    (fun i c ->
      let x = Char.code c lxor Char.code d2.[i] in
      for bit = 0 to 7 do
        if x land (1 lsl bit) <> 0 then incr diff
      done)
    d1;
  Alcotest.(check bool) (Printf.sprintf "bit diff %d" !diff) true (!diff > 80 && !diff < 176)

let suite =
  ( "sha256",
    [
      Alcotest.test_case "FIPS vectors" `Quick test_fips_vectors;
      Alcotest.test_case "million a" `Slow test_million_a;
      Alcotest.test_case "million a, chunked" `Slow test_million_a_chunked;
      Alcotest.test_case "every split point" `Quick test_every_split;
      Alcotest.test_case "incremental = oneshot (qcheck)" `Quick test_incremental_equals_oneshot;
      Alcotest.test_case "padding boundaries" `Quick test_padding_boundaries;
      Alcotest.test_case "finalize twice" `Quick test_finalize_twice_raises;
      Alcotest.test_case "feed after finalize" `Quick test_feed_after_finalize_raises;
      Alcotest.test_case "feed_sub bounds" `Quick test_feed_sub_bounds;
      Alcotest.test_case "raw string" `Quick test_raw_string;
      Alcotest.test_case "equality" `Quick test_equal_constant_time_semantics;
      Alcotest.test_case "avalanche" `Quick test_avalanche;
    ] )
