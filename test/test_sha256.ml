(* FIPS 180-4 vectors plus incremental-feeding properties. *)

module Sha256 = Oasis_crypto.Sha256

(* Both kernels on every run: [Sha256.init] reaches the one the probe
   chose (the SHA instructions where the CPU has them), [init_portable]
   the OCaml kernel. Tests that feed a context run once per kernel. *)
let kernels = [ ("probed", Sha256.init); ("portable", Sha256.init_portable) ]

let for_each_kernel f = List.iter (fun (name, init) -> f name init) kernels

let digest init s =
  let ctx = init () in
  Sha256.feed_string ctx s;
  Sha256.finalize ctx

let hex init s = Sha256.to_hex (digest init s)

(* The compression loop as it stood before the 8-round unrolled kernel:
   one round per iteration, every working variable shifted along, each
   rotation two shifts and an or. Kept as the oracle the library's kernel
   must agree with, with the straightforward padding. *)
module Reference_sha256 = struct
  let mask = 0xFFFFFFFF

  let k =
    [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
       0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
       0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
       0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
       0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
       0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
       0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
       0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
       0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
       0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
       0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2 |]

  let rotr x n = (x lsr n) lor (x lsl (32 - n))

  let compress h buf off =
    let w = Array.make 64 0 in
    for i = 0 to 15 do
      w.(i) <- Int32.to_int (Bytes.get_int32_be buf (off + (4 * i))) land mask
    done;
    for i = 16 to 63 do
      let x = w.(i - 15) and y = w.(i - 2) in
      let s0 = (rotr x 7 lxor rotr x 18 lxor (x lsr 3)) land mask in
      let s1 = (rotr y 17 lxor rotr y 19 lxor (y lsr 10)) land mask in
      w.(i) <- (w.(i - 16) + s0 + w.(i - 7) + s1) land mask
    done;
    let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
    let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
    for i = 0 to 63 do
      let e' = !e and a' = !a in
      let s1 = (rotr e' 6 lxor rotr e' 11 lxor rotr e' 25) land mask in
      let ch = (e' land !f) lxor (lnot e' land !g) in
      let temp1 = !hh + s1 + ch + k.(i) + w.(i) in
      let s0 = (rotr a' 2 lxor rotr a' 13 lxor rotr a' 22) land mask in
      let maj = (a' land !b) lxor (a' land !c) lxor (!b land !c) in
      hh := !g;
      g := !f;
      f := e';
      e := (!d + temp1) land mask;
      d := !c;
      c := !b;
      b := a';
      a := (temp1 + s0 + maj) land mask
    done;
    List.iteri (fun i v -> h.(i) <- (h.(i) + v) land mask) [ !a; !b; !c; !d; !e; !f; !g; !hh ]

  let digest_string s =
    let len = String.length s in
    let padded_len = ((len + 8) / 64 * 64) + 64 in
    let buf = Bytes.make padded_len '\x00' in
    Bytes.blit_string s 0 buf 0 len;
    Bytes.set buf len '\x80';
    Bytes.set_int64_be buf (padded_len - 8) (Int64.of_int (len * 8));
    let h =
      [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c;
         0x1f83d9ab; 0x5be0cd19 |]
    in
    for blk = 0 to (padded_len / 64) - 1 do
      compress h buf (64 * blk)
    done;
    let out = Bytes.create 32 in
    Array.iteri (fun i v -> Bytes.set_int32_be out (4 * i) (Int32.of_int v)) h;
    Bytes.to_string out
end


let test_fips_vectors () =
  for_each_kernel (fun kernel init ->
      let check name expected msg =
        Alcotest.(check string) (kernel ^ ": " ^ name) expected (hex init msg)
      in
      check "empty" "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855" "";
      check "abc" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad" "abc";
      check "two blocks" "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
      check "448-bit boundary" "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
        "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu")

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
  for_each_kernel (fun kernel init ->
      for len = 0 to 130 do
        let s = String.init len (fun i -> Char.chr (((i * 31) + len) land 255)) in
        let whole = Sha256.digest_string s in
        for cut = 0 to len do
          let ctx = init () in
          Sha256.feed_string ctx (String.sub s 0 cut);
          if cut land 1 = 0 then
            Sha256.feed_bytes ctx (Bytes.of_string (String.sub s cut (len - cut)))
          else Sha256.feed_sub ctx (Bytes.of_string (s ^ "trailing")) cut (len - cut);
          if not (Sha256.equal (Sha256.finalize ctx) whole) then
            Alcotest.failf "%s kernel: length %d split at %d differs from one-shot" kernel len cut
        done
      done)

let test_incremental_equals_oneshot () =
  let property (chunks : string list) =
    let whole = String.concat "" chunks in
    let ctx = Sha256.init () in
    List.iter (Sha256.feed_string ctx) chunks;
    Sha256.equal (Sha256.finalize ctx) (Sha256.digest_string whole)
  in
  let gen = QCheck.(list_of_size Gen.(int_bound 8) (string_of_size Gen.(int_bound 200))) in
  QCheck.Test.check_exn (QCheck.Test.make ~count:200 ~name:"incremental = oneshot" gen property)

(* A random message of 0-2,000 bytes with up to six cut points, and for
   each piece whether it is fed as a whole string or as a range of a larger
   buffer. *)
let pieces_gen =
  QCheck.Gen.(
    let* msg = string_size ~gen:char (int_bound 2000) in
    let* cuts = list_size (int_bound 6) (int_bound (String.length msg)) in
    let* ranged = list_repeat (List.length cuts + 1) bool in
    return (msg, List.sort_uniq compare cuts, ranged))

let print_pieces (msg, cuts, _) =
  Printf.sprintf "%d bytes cut at [%s]" (String.length msg)
    (String.concat "; " (List.map string_of_int cuts))

let digest_in_pieces init (msg, cuts, ranged) =
  let ctx = init () in
  let bounds = (0 :: cuts) @ [ String.length msg ] in
  let rec feed bounds ranged =
    match (bounds, ranged) with
    | lo :: (hi :: _ as rest), as_range :: ranged ->
        let piece = String.sub msg lo (hi - lo) in
        if as_range then Sha256.feed_sub ctx (Bytes.of_string ("<" ^ piece ^ ">")) 1 (hi - lo)
        else Sha256.feed_string ctx piece;
        feed rest ranged
    | _ -> ()
  in
  feed bounds ranged;
  Sha256.to_raw_string (Sha256.finalize ctx)

(* Each kernel agrees with the reference on random messages fed in random
   pieces. *)
let test_agrees_with_reference () =
  for_each_kernel (fun kernel init ->
      let property ((msg, _, _) as pieces) =
        String.equal (digest_in_pieces init pieces) (Reference_sha256.digest_string msg)
      in
      QCheck.Test.check_exn
        (QCheck.Test.make ~count:300 ~name:(kernel ^ " kernel = reference")
           (QCheck.make ~print:print_pieces pieces_gen)
           property))

(* The two kernels agree with each other, each fed its own random cut of
   the same message. *)
let test_kernels_agree () =
  let gen =
    QCheck.Gen.(
      let* ((msg, _, _) as a) = pieces_gen in
      let* cuts = list_size (int_bound 6) (int_bound (String.length msg)) in
      let* ranged = list_repeat (List.length cuts + 1) bool in
      return (a, (msg, List.sort_uniq compare cuts, ranged)))
  in
  let print (a, b) = print_pieces a ^ " / " ^ print_pieces b in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:300 ~name:"probed kernel = portable kernel" (QCheck.make ~print gen)
       (fun (a, b) ->
         String.equal (digest_in_pieces Sha256.init a) (digest_in_pieces Sha256.init_portable b)))

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
      Alcotest.test_case "kernel = reference (qcheck)" `Quick test_agrees_with_reference;
      Alcotest.test_case "probed kernel = portable kernel (qcheck)" `Quick test_kernels_agree;
      Alcotest.test_case "padding boundaries" `Quick test_padding_boundaries;
      Alcotest.test_case "finalize twice" `Quick test_finalize_twice_raises;
      Alcotest.test_case "feed after finalize" `Quick test_feed_after_finalize_raises;
      Alcotest.test_case "feed_sub bounds" `Quick test_feed_sub_bounds;
      Alcotest.test_case "raw string" `Quick test_raw_string;
      Alcotest.test_case "equality" `Quick test_equal_constant_time_semantics;
      Alcotest.test_case "avalanche" `Quick test_avalanche;
    ] )
