(* Field axioms for GF(2^61 - 1), checked by property testing. *)

module Modp = Oasis_crypto.Modp
module Rng = Oasis_util.Rng

let elements n =
  let rng = Rng.create 99 in
  List.init n (fun _ -> Modp.random rng)
  @ [ 1L; 2L; Int64.sub Modp.p 1L; Int64.sub Modp.p 2L ]

(* Field addition in the int64 model: canonical elements are below 2^61,
   so their sum fits. *)
let ref_add a b = Int64.rem (Int64.add a b) Modp.p

let test_reduce_canonical () =
  Alcotest.(check int64) "p reduces to 0" 0L (Modp.of_int64 Modp.p);
  Alcotest.(check int64) "p+1 reduces to 1" 1L (Modp.of_int64 (Int64.add Modp.p 1L));
  Alcotest.(check int64) "negative wraps" (Int64.sub Modp.p 1L) (Modp.of_int64 (-1L))

let test_mul_commutative () =
  let xs = elements 30 in
  List.iter
    (fun a -> List.iter (fun b -> Alcotest.(check int64) "ab=ba" (Modp.mul a b) (Modp.mul b a)) xs)
    xs

let test_mul_associative () =
  let xs = elements 12 in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          List.iter
            (fun c ->
              Alcotest.(check int64) "(ab)c=a(bc)"
                (Modp.mul (Modp.mul a b) c)
                (Modp.mul a (Modp.mul b c)))
            xs)
        xs)
    xs

let test_distributive () =
  let xs = elements 12 in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          List.iter
            (fun c ->
              Alcotest.(check int64) "a(b+c)=ab+ac"
                (Modp.mul a (ref_add b c))
                (ref_add (Modp.mul a b) (Modp.mul a c)))
            xs)
        xs)
    xs

let test_mul_matches_small_reference () =
  (* For operands below 2^31 the product fits in an int64 exactly. *)
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let a = Int64.of_int (Rng.int rng 0x7FFFFFFF) in
    let b = Int64.of_int (Rng.int rng 0x7FFFFFFF) in
    let expected = Int64.rem (Int64.mul a b) Modp.p in
    Alcotest.(check int64) "small product" expected (Modp.mul a b)
  done

let test_inverse () =
  List.iter
    (fun a -> Alcotest.(check int64) "a * a^-1 = 1" 1L (Modp.mul a (Modp.inv a)))
    (elements 50)

let test_inv_zero_raises () =
  Alcotest.check_raises "inv 0" (Invalid_argument "Modp.inv: zero has no inverse") (fun () ->
      ignore (Modp.inv 0L))

let test_fermat () =
  List.iter
    (fun a -> Alcotest.(check int64) "a^(p-1) = 1" 1L (Modp.pow a (Int64.sub Modp.p 1L)))
    (elements 10)

let test_pow_laws () =
  let rng = Rng.create 5 in
  for _ = 1 to 50 do
    let a = Modp.random rng in
    let x = Int64.of_int (Rng.int rng 1000) and y = Int64.of_int (Rng.int rng 1000) in
    Alcotest.(check int64) "a^(x+y) = a^x a^y"
      (Modp.pow a (Int64.add x y))
      (Modp.mul (Modp.pow a x) (Modp.pow a y))
  done

let test_pow_edge () =
  Alcotest.(check int64) "a^0 = 1" 1L (Modp.pow 12345L 0L);
  Alcotest.(check int64) "a^1 = a" 12345L (Modp.pow 12345L 1L);
  Alcotest.check_raises "negative exponent" (Invalid_argument "Modp.pow: negative exponent")
    (fun () -> ignore (Modp.pow 2L (-1L)))

(* An independent int64 model of the field: double-and-add multiplication
   (every partial sum stays below 2^62) and square-and-multiply on top of
   it. Slow and obviously correct; it lives only here. *)
let ref_mul a b =
  let acc = ref 0L and a = ref a and b = ref b in
  while !b > 0L do
    if Int64.logand !b 1L = 1L then acc := Int64.rem (Int64.add !acc !a) Modp.p;
    a := Int64.rem (Int64.add !a !a) Modp.p;
    b := Int64.shift_right_logical !b 1
  done;
  !acc

let ref_pow base e =
  let acc = ref 1L and base = ref (Modp.of_int64 base) and e = ref e in
  while !e > 0L do
    if Int64.logand !e 1L = 1L then acc := ref_mul !acc !base;
    base := ref_mul !base !base;
    e := Int64.shift_right_logical !e 1
  done;
  !acc

let edge_values =
  let p = Modp.p in
  [ 0L; 1L; 2L; 0x7FFFFFFFL; 0x80000000L; 0x80000001L; Int64.sub p 2L; Int64.sub p 1L ]

(* Canonical elements: uniform over [0, p), or one of the edge values. *)
let element =
  let open QCheck in
  let uniform = Gen.map (fun x -> Int64.rem (Int64.logand x Int64.max_int) Modp.p) Gen.ui64 in
  make ~print:Int64.to_string (Gen.frequency [ (4, uniform); (1, Gen.oneofl edge_values) ])

let test_mul_matches_model () =
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          Alcotest.(check int64) (Printf.sprintf "%Ld * %Ld" a b) (ref_mul a b) (Modp.mul a b))
        edge_values)
    edge_values;
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:2000 ~name:"mul = model" (QCheck.pair element element)
       (fun (a, b) -> Int64.equal (Modp.mul a b) (ref_mul a b)))

let test_pow_matches_model () =
  List.iter
    (fun b ->
      List.iter
        (fun e -> Alcotest.(check int64) (Printf.sprintf "%Ld^%Ld" b e) (ref_pow b e) (Modp.pow b e))
        (Int64.max_int :: edge_values))
    edge_values;
  let exponent =
    QCheck.make ~print:Int64.to_string (QCheck.Gen.map (Int64.logand Int64.max_int) QCheck.Gen.ui64)
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:200 ~name:"pow = model" (QCheck.pair element exponent)
       (fun (b, e) -> Int64.equal (Modp.pow b e) (ref_pow b e)))

(* The base [Modp.pow_generator] exponentiates. *)
let generator = 3L

(* Exponents at every digit boundary of any window (2^i − 1 and 2^i),
   the group order's neighbours, and the top of the int64 range, which
   the table covers bit for bit rather than reducing by Fermat. *)
let table_exponents =
  List.concat_map (fun i -> [ Int64.pred (Int64.shift_left 1L i); Int64.shift_left 1L i ])
    (List.init 62 (fun i -> i + 1))
  @ [ 0L; 1L; Int64.sub Modp.p 2L; Int64.sub Modp.p 1L; Modp.p; Int64.pred Int64.max_int;
      Int64.max_int ]

(* A table power is read through [pow_generator] (the generator's table)
   and [pow_generator_mul_pow] (a base's own table); the latter is checked
   against the model with and without the table, and with g^0 = 1 for the
   base's power alone. *)
let test_pow_table_matches_model () =
  List.iter
    (fun e ->
      Alcotest.(check int64) (Printf.sprintf "g^%Ld" e) (ref_pow generator e)
        (Modp.pow_generator e))
    table_exponents;
  List.iter
    (fun b ->
      let table = Modp.table b in
      List.iter
        (fun e ->
          Alcotest.(check int64) (Printf.sprintf "%Ld^%Ld" b e) (ref_pow b e)
            (Modp.pow_generator_mul_pow 0L ~table b e))
        table_exponents)
    edge_values;
  Alcotest.check_raises "negative exponent" (Invalid_argument "Modp.pow_generator: negative exponent")
    (fun () -> ignore (Modp.pow_generator (-1L)));
  Alcotest.check_raises "negative exponent"
    (Invalid_argument "Modp.pow_generator_mul_pow: negative exponent") (fun () ->
      ignore (Modp.pow_generator_mul_pow 1L 2L (-1L)));
  let exponent =
    QCheck.make ~print:Int64.to_string
      (QCheck.Gen.frequency
         [
           (4, QCheck.Gen.map (Int64.logand Int64.max_int) QCheck.Gen.ui64);
           (1, QCheck.Gen.oneofl table_exponents);
         ])
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:300 ~name:"g^e from the generator's table = model" exponent (fun e ->
         Int64.equal (Modp.pow_generator e) (ref_pow generator e)));
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:50 ~name:"g^s y^e, with and without y's table = model"
       (QCheck.pair element (QCheck.list_of_size (QCheck.Gen.return 8) (QCheck.pair exponent exponent)))
       (fun (y, ses) ->
         let table = Modp.table y in
         List.for_all
           (fun (s, e) ->
             let model = ref_mul (ref_pow generator s) (ref_pow y e) in
             Int64.equal (Modp.pow_generator_mul_pow s ~table y e) model
             && Int64.equal (Modp.pow_generator_mul_pow s y e) model)
           ses))

(* Out-of-range operands are canonicalised before the native-int path. *)
let test_noncanonical_operands () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:500 ~name:"mul and table bases canonicalise"
       QCheck.(pair int64 int64)
       (fun (a, b) ->
         let a' = Modp.of_int64 a and b' = Modp.of_int64 b in
         Int64.equal (Modp.mul a b) (ref_mul a' b')
         && Int64.equal
              (Modp.pow_generator_mul_pow 0L ~table:(Modp.table a) a 12345L)
              (ref_pow a' 12345L)))

let test_random_in_range () =
  let rng = Rng.create 77 in
  for _ = 1 to 1000 do
    let x = Modp.random rng in
    if x <= 0L || x >= Modp.p then Alcotest.failf "out of range: %Ld" x
  done

let suite =
  ( "modp",
    [
      Alcotest.test_case "canonical reduction" `Quick test_reduce_canonical;
      Alcotest.test_case "mul commutative" `Quick test_mul_commutative;
      Alcotest.test_case "mul associative" `Quick test_mul_associative;
      Alcotest.test_case "distributive" `Quick test_distributive;
      Alcotest.test_case "small reference" `Quick test_mul_matches_small_reference;
      Alcotest.test_case "inverse" `Quick test_inverse;
      Alcotest.test_case "inv zero" `Quick test_inv_zero_raises;
      Alcotest.test_case "Fermat" `Quick test_fermat;
      Alcotest.test_case "pow laws" `Quick test_pow_laws;
      Alcotest.test_case "pow edge cases" `Quick test_pow_edge;
      Alcotest.test_case "mul = int64 model" `Quick test_mul_matches_model;
      Alcotest.test_case "pow = int64 model" `Quick test_pow_matches_model;
      Alcotest.test_case "pow_table = int64 model" `Quick test_pow_table_matches_model;
      Alcotest.test_case "non-canonical operands" `Quick test_noncanonical_operands;
      Alcotest.test_case "random range" `Quick test_random_in_range;
    ] )
