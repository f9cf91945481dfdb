(* The one hex codec: every byte value round-trips, and decoding is strict
   (lowercase only, even length, nothing outside [0-9a-f]). *)

module Hex = Oasis_util.Hex

let all_bytes = String.init 256 Char.chr

let test_all_byte_values () =
  let encoded = Hex.encode all_bytes in
  Alcotest.(check int) "two digits per byte" 512 (String.length encoded);
  String.iteri
    (fun i c ->
      Alcotest.(check string)
        (Printf.sprintf "byte %d" i)
        (Printf.sprintf "%02x" (Char.code c))
        (String.sub encoded (2 * i) 2))
    all_bytes;
  Alcotest.(check (option string)) "round trip" (Some all_bytes) (Hex.decode encoded)

let test_known_values () =
  Alcotest.(check string) "empty" "" (Hex.encode "");
  Alcotest.(check string) "ascii" "6f61736973" (Hex.encode "oasis");
  Alcotest.(check (option string)) "empty decodes" (Some "") (Hex.decode "");
  Alcotest.(check (option string)) "decode" (Some "\x00\xff\x10") (Hex.decode "00ff10")

(* [write] is [encode] into a caller's buffer: the same digits at the
   offset, nothing outside it, and no write past either buffer. *)
let test_write_into_buffer () =
  let src = Bytes.of_string ("--" ^ all_bytes ^ "--") in
  let dst = Bytes.make 516 '.' in
  Alcotest.(check int) "returns the end" 514 (Hex.write src 2 256 dst 2);
  Alcotest.(check string) "same digits as encode" (".." ^ Hex.encode all_bytes ^ "..")
    (Bytes.to_string dst);
  List.iter
    (fun (src_pos, len, dst_pos) ->
      Alcotest.check_raises
        (Printf.sprintf "src_pos %d len %d dst_pos %d" src_pos len dst_pos)
        (Invalid_argument "Hex.write")
        (fun () -> ignore (Hex.write src src_pos len dst dst_pos)))
    [ (-1, 1, 0); (0, -1, 0); (0, 261, 0); (1, 1, -1); (0, 258, 1); (0, 1, 515) ]

let test_strict_decode () =
  List.iter
    (fun bad -> Alcotest.(check (option string)) bad None (Hex.decode bad))
    [ "0"; "abc"; "0A"; "FF"; "aB"; "0g"; "g0"; "zz"; " 0"; "0 "; "0x"; "\x00\x00"; "-1" ]

let test_roundtrip_qcheck () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:300 ~name:"decode (encode s) = Some s"
       QCheck.(string_of_size Gen.(int_bound 300))
       (fun s -> Hex.decode (Hex.encode s) = Some s))

let suite =
  ( "hex",
    [
      Alcotest.test_case "all byte values" `Quick test_all_byte_values;
      Alcotest.test_case "known values" `Quick test_known_values;
      Alcotest.test_case "write into a buffer" `Quick test_write_into_buffer;
      Alcotest.test_case "strict decode" `Quick test_strict_decode;
      Alcotest.test_case "round trip (qcheck)" `Quick test_roundtrip_qcheck;
    ] )
