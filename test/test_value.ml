module Value = Oasis_util.Value
module Ident = Oasis_util.Ident

let value = Alcotest.testable Value.pp Value.equal

let samples =
  [
    Value.Int 0;
    Value.Int (-3);
    Value.Int 12345;
    Value.Str "";
    Value.Str "hello";
    Value.Str "with spaces";
    Value.Bool true;
    Value.Bool false;
    Value.Time 0.0;
    Value.Time 1.5;
    Value.Id (Ident.make "p" 7);
  ]

let test_equal_reflexive () =
  List.iter (fun v -> Alcotest.(check value) "reflexive" v v) samples

let test_compare_distinct () =
  List.iteri
    (fun i a ->
      List.iteri
        (fun j b ->
          if i <> j then
            Alcotest.(check bool)
              (Format.asprintf "%a <> %a" Value.pp a Value.pp b)
              false (Value.equal a b))
        samples)
    samples

let test_compare_antisymmetric () =
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let c1 = Value.compare a b and c2 = Value.compare b a in
          Alcotest.(check int) "antisymmetric" (compare c1 0) (compare 0 c2))
        samples)
    samples

let encode v =
  let b = Bytes.create (Value.encoded_length v) in
  Alcotest.(check int) "write ends at encoded_length" (Bytes.length b) (Value.write b 0 v);
  Bytes.to_string b

let test_encode_injective () =
  (* Distinct values encode distinctly (prefix games must not collapse). *)
  List.iteri
    (fun i a ->
      List.iteri
        (fun j b ->
          if i <> j then
            Alcotest.(check bool) "distinct encodings" false (String.equal (encode a) (encode b)))
        samples)
    samples

let test_encode_type_tagged () =
  (* Int 1 and Str "1" and Bool true must differ. *)
  let e1 = encode (Value.Int 1) and e2 = encode (Value.Str "1") in
  Alcotest.(check bool) "int vs str" false (String.equal e1 e2)

let test_list_encoding_unambiguous () =
  (* ["ab"; "c"] vs ["a"; "bc"] — length prefixes must separate them. *)
  let enc vs = String.concat "" (List.map encode vs) in
  Alcotest.(check bool) "no concat collision" false
    (String.equal (enc [ Value.Str "ab"; Value.Str "c" ]) (enc [ Value.Str "a"; Value.Str "bc" ]))

(* Messages are sized from [string_length]; it must be the rendered
   length, sign, [min_int] and negative identifier numbers included. *)
let test_string_length () =
  List.iter
    (fun v ->
      Alcotest.(check int) (Value.to_string v) (String.length (Value.to_string v))
        (Value.string_length v))
    (samples
    @ [
        Value.Int min_int;
        Value.Int max_int;
        Value.Int 10;
        Value.Int (-100);
        Value.Time (-1e-300);
        Value.Time Float.nan;
        Value.Id (Ident.make "" (-42));
        Value.Id (Ident.make "cert" 1000);
      ])

let suite =
  ( "value",
    [
      Alcotest.test_case "equal reflexive" `Quick test_equal_reflexive;
      Alcotest.test_case "distinct samples" `Quick test_compare_distinct;
      Alcotest.test_case "compare antisymmetric" `Quick test_compare_antisymmetric;
      Alcotest.test_case "encode injective" `Quick test_encode_injective;
      Alcotest.test_case "encode type tagged" `Quick test_encode_type_tagged;
      Alcotest.test_case "list encoding unambiguous" `Quick test_list_encoding_unambiguous;
      Alcotest.test_case "string_length" `Quick test_string_length;
    ] )
