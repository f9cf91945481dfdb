(* Determinism and distribution sanity for the splitmix64 generator. *)

module Rng = Oasis_util.Rng

let test_determinism () =
  let a = Rng.create 123 and b = Rng.create 123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if not (Int64.equal (Rng.int64 a) (Rng.int64 b)) then differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let test_split_independent () =
  let parent = Rng.create 7 in
  let child = Rng.split parent in
  let xs = List.init 50 (fun _ -> Rng.int64 parent) in
  let ys = List.init 50 (fun _ -> Rng.int64 child) in
  Alcotest.(check bool) "split streams differ" false (xs = ys)

let test_int_bounds () =
  let rng = Rng.create 5 in
  for _ = 1 to 1000 do
    let x = Rng.int rng 17 in
    if x < 0 || x >= 17 then Alcotest.failf "out of bounds: %d" x
  done

let test_int_invalid () =
  let rng = Rng.create 5 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_int_covers_range () =
  let rng = Rng.create 11 in
  let seen = Array.make 4 false in
  for _ = 1 to 200 do
    seen.(Rng.int rng 4) <- true
  done;
  Alcotest.(check bool) "all residues hit" true (Array.for_all Fun.id seen)

let test_float_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let x = Rng.float rng 2.5 in
    if x < 0.0 || x >= 2.5 then Alcotest.failf "float out of bounds: %f" x
  done

let test_bernoulli_extremes () =
  let rng = Rng.create 4 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=0 never" false (Rng.bernoulli rng 0.0)
  done;
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=1 always" true (Rng.bernoulli rng 1.0)
  done

let test_bernoulli_rate () =
  let rng = Rng.create 8 in
  let hits = ref 0 in
  let n = 10_000 in
  for _ = 1 to n do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "rate near 0.3" true (rate > 0.27 && rate < 0.33)

let test_pick () =
  let rng = Rng.create 2 in
  let x = Rng.pick rng [ 42 ] in
  Alcotest.(check int) "singleton" 42 x;
  Alcotest.check_raises "empty list" (Invalid_argument "Rng.pick: empty list") (fun () ->
      ignore (Rng.pick rng []))

let test_shuffle_permutation () =
  let rng = Rng.create 13 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

let test_exponential_positive () =
  let rng = Rng.create 21 in
  for _ = 1 to 1000 do
    if Rng.exponential rng 5.0 < 0.0 then Alcotest.fail "negative sample"
  done

let test_exponential_mean () =
  let rng = Rng.create 22 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential rng 3.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 3" true (mean > 2.8 && mean < 3.2)

let test_bytes () =
  let rng = Rng.create 17 in
  let b = Rng.bytes rng 64 in
  Alcotest.(check int) "length" 64 (Bytes.length b);
  let b2 = Rng.bytes rng 64 in
  Alcotest.(check bool) "fresh randomness" false (Bytes.equal b b2)

let suite =
  ( "rng",
    [
      Alcotest.test_case "determinism" `Quick test_determinism;
      Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
      Alcotest.test_case "split" `Quick test_split_independent;
      Alcotest.test_case "int bounds" `Quick test_int_bounds;
      Alcotest.test_case "int invalid bound" `Quick test_int_invalid;
      Alcotest.test_case "int covers range" `Quick test_int_covers_range;
      Alcotest.test_case "float bounds" `Quick test_float_bounds;
      Alcotest.test_case "bernoulli extremes" `Quick test_bernoulli_extremes;
      Alcotest.test_case "bernoulli rate" `Quick test_bernoulli_rate;
      Alcotest.test_case "pick" `Quick test_pick;
      Alcotest.test_case "shuffle permutation" `Quick test_shuffle_permutation;
      Alcotest.test_case "exponential positive" `Quick test_exponential_positive;
      Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
      Alcotest.test_case "bytes" `Quick test_bytes;
    ] )
