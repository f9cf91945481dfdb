module Ident = Oasis_util.Ident

let ident = Alcotest.testable Ident.pp Ident.equal

let test_roundtrip () =
  let id = Ident.make "service" 42 in
  Alcotest.(check string) "to_string" "service#42" (Ident.to_string id);
  Alcotest.(check (option ident)) "of_string" (Some id) (Ident.of_string "service#42")

let test_of_string_rejects () =
  List.iter
    (fun s -> Alcotest.(check (option ident)) s None (Ident.of_string s))
    [ ""; "plain"; "#1"; "a#"; "a#x"; "a#-3" ]

let test_of_string_nested_hash () =
  (* rindex: the tag may itself contain '#'. *)
  match Ident.of_string "a#b#3" with
  | Some id ->
      Alcotest.(check string) "tag" "a#b" (Ident.tag id);
      Alcotest.(check int) "number" 3 (Ident.number id)
  | None -> Alcotest.fail "expected parse"

let test_ordering () =
  let a = Ident.make "a" 2 and b = Ident.make "b" 1 in
  Alcotest.(check bool) "tag dominates" true (Ident.compare a b < 0);
  Alcotest.(check bool) "number breaks ties" true
    (Ident.compare (Ident.make "x" 1) (Ident.make "x" 2) < 0);
  Alcotest.(check int) "equal" 0 (Ident.compare a (Ident.make "a" 2))

let test_generator () =
  let g = Ident.generator "t" in
  let a = Ident.fresh g and b = Ident.fresh g in
  Alcotest.(check bool) "fresh differ" false (Ident.equal a b);
  Alcotest.(check int) "sequential" 0 (Ident.number a);
  Alcotest.(check int) "sequential 2" 1 (Ident.number b)

let test_generators_independent () =
  let g1 = Ident.generator "x" and g2 = Ident.generator "x" in
  let a = Ident.fresh g1 in
  let b = Ident.fresh g2 in
  Alcotest.(check bool) "equal by value" true (Ident.equal a b)

let test_containers () =
  let a = Ident.make "p" 1 and b = Ident.make "p" 2 in
  let set = Ident.Set.of_list [ a; b; a ] in
  Alcotest.(check int) "set dedup" 2 (Ident.Set.cardinal set);
  let map = Ident.Map.(empty |> add a 1 |> add b 2) in
  Alcotest.(check (option int)) "map find" (Some 2) (Ident.Map.find_opt b map);
  let tbl = Ident.Tbl.create 4 in
  Ident.Tbl.replace tbl a "x";
  Alcotest.(check (option string)) "tbl find" (Some "x") (Ident.Tbl.find_opt tbl a)

let test_hash_consistent () =
  let a = Ident.make "h" 5 and b = Ident.make "h" 5 in
  Alcotest.(check int) "equal values hash equally" (Ident.hash a) (Ident.hash b)

(* The hash is the pair's: every [Ident.Tbl] fold that is not sorted
   visits in the order this pins. *)
let test_hash_is_pair_hash () =
  let gen =
    QCheck.(
      pair (oneofl [ "cert"; "service"; "principal"; "civ"; "session"; "sub" ]) (int_bound 2_000_000))
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:2000 ~name:"Ident.hash = Hashtbl.hash (tag, number)" gen
       (fun (tag, n) ->
         let a = Ident.make tag n in
         Ident.hash a = Hashtbl.hash (Ident.tag a, Ident.number a)))

let suite =
  ( "ident",
    [
      Alcotest.test_case "roundtrip" `Quick test_roundtrip;
      Alcotest.test_case "of_string rejects" `Quick test_of_string_rejects;
      Alcotest.test_case "nested hash" `Quick test_of_string_nested_hash;
      Alcotest.test_case "ordering" `Quick test_ordering;
      Alcotest.test_case "generator" `Quick test_generator;
      Alcotest.test_case "generators independent" `Quick test_generators_independent;
      Alcotest.test_case "containers" `Quick test_containers;
      Alcotest.test_case "hash consistent" `Quick test_hash_consistent;
      Alcotest.test_case "hash is the pair's" `Quick test_hash_is_pair_hash;
    ] )
