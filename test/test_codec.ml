(* Certificate marshalling: round trips and adversarial bytes. *)

module Codec = Oasis_cert.Codec
module Rmc = Oasis_cert.Rmc
module Appointment = Oasis_cert.Appointment
module Secret = Oasis_crypto.Secret
module Sha256 = Oasis_crypto.Sha256
module Ident = Oasis_util.Ident
module Value = Oasis_util.Value
module Wire = Oasis_cert.Wire

let secret = Secret.of_string "codec-secret-0123456789abcdef012"

(* qcheck generators for certificate contents *)

let value_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun n -> Value.Int n) small_signed_int;
        map (fun s -> Value.Str s) (string_size (int_bound 20));
        map (fun b -> Value.Bool b) bool;
        map (fun f -> Value.Time (float_of_int f /. 8.0)) (int_bound 10_000);
        map2 (fun t n -> Value.Id (Ident.make ("t" ^ string_of_int t) n)) (int_bound 5) (int_bound 1000);
      ])

let rmc_gen =
  QCheck.Gen.(
    map
      (fun (idn, issn, role, args, t, key) ->
        Rmc.issue ~secret ~principal_key:key ~id:(Ident.make "cert" idn)
          ~issuer:(Ident.make "service" issn) ~role ~args
          ~issued_at:(float_of_int t /. 4.0))
      (tup6 (int_bound 10_000) (int_bound 100) (string_size ~gen:(char_range 'a' 'z') (int_range 1 15))
         (list_size (int_bound 6) value_gen)
         (int_bound 100_000) (string_size (int_bound 40))))

let appt_gen =
  QCheck.Gen.(
    map
      (fun (idn, kind, args, holder, epoch, expiry) ->
        Appointment.issue ~master_secret:secret ~epoch ~id:(Ident.make "cert" idn)
          ~issuer:(Ident.make "service" 7) ~kind ~args ~holder ~issued_at:1.0
          ?expires_at:(if expiry = 0 then None else Some (float_of_int expiry))
          ())
      (tup6 (int_bound 10_000) (string_size ~gen:(char_range 'a' 'z') (int_range 1 15))
         (list_size (int_bound 6) value_gen)
         (string_size (int_bound 30))
         (int_bound 5) (int_bound 1000)))

let rmc_equal (a : Rmc.t) (b : Rmc.t) =
  Ident.equal a.id b.id && Ident.equal a.issuer b.issuer && String.equal a.role b.role
  && List.length a.args = List.length b.args
  && List.for_all2 Value.equal a.args b.args
  && Float.equal a.issued_at b.issued_at
  && Sha256.equal a.signature b.signature

let appt_equal (a : Appointment.t) (b : Appointment.t) =
  Ident.equal a.id b.id && Ident.equal a.issuer b.issuer && String.equal a.kind b.kind
  && List.for_all2 Value.equal a.args b.args
  && String.equal a.holder b.holder
  && Float.equal a.issued_at b.issued_at
  && a.expires_at = b.expires_at && a.epoch = b.epoch
  && Sha256.equal a.signature b.signature

let test_rmc_roundtrip () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:300 ~name:"rmc roundtrip" (QCheck.make rmc_gen) (fun rmc ->
         match Fixtures.rmc_of_string (Fixtures.rmc_to_string rmc) with
         | Ok decoded -> rmc_equal rmc decoded
         | Error _ -> false))

let test_appt_roundtrip () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:300 ~name:"appt roundtrip" (QCheck.make appt_gen) (fun appt ->
         match Fixtures.appointment_of_string (Fixtures.appointment_to_string appt) with
         | Ok decoded -> appt_equal appt decoded
         | Error _ -> false))

let test_roundtrip_preserves_verification () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:100 ~name:"decoded rmc verifies" (QCheck.make rmc_gen) (fun rmc ->
         (* Verification must not depend on in-memory provenance. *)
         match Fixtures.rmc_of_string (Fixtures.rmc_to_string rmc) with
         | Ok decoded ->
             Rmc.verify ~secret ~principal_key:"k" decoded
             = Rmc.verify ~secret ~principal_key:"k" rmc
         | Error _ -> false))

let test_decoder_total_on_truncation () =
  let sample =
    Fixtures.rmc_to_string
      (Rmc.issue ~secret ~principal_key:"k" ~id:(Ident.make "cert" 1)
         ~issuer:(Ident.make "service" 1) ~role:"doctor"
         ~args:[ Value.Int 1; Value.Str "x" ]
         ~issued_at:3.0)
  in
  for len = 0 to String.length sample - 1 do
    match Fixtures.rmc_of_string (String.sub sample 0 len) with
    | Ok _ -> Alcotest.failf "truncation to %d decoded" len
    | Error _ -> ()
  done

let test_decoder_total_on_mutation () =
  (* Byte flips either decode to different fields or error — never raise.
     (Signature bytes may flip without breaking framing; verification is
     what catches that, not the decoder.) *)
  let sample =
    Fixtures.appointment_to_string
      (Appointment.issue ~master_secret:secret ~epoch:1 ~id:(Ident.make "cert" 2)
         ~issuer:(Ident.make "service" 1) ~kind:"member"
         ~args:[ Value.Bool true ]
         ~holder:"h" ~issued_at:0.0 ~expires_at:9.0 ())
  in
  for i = 0 to String.length sample - 1 do
    let mutated = Bytes.of_string sample in
    Bytes.set mutated i (Char.chr ((Char.code sample.[i] + 1) land 0xff));
    ignore (Fixtures.appointment_of_string (Bytes.to_string mutated))
  done

let test_decoder_random_garbage () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:500 ~name:"garbage never raises"
       QCheck.(string_of_size Gen.(int_bound 300))
       (fun s ->
         (match Fixtures.rmc_of_string s with Ok _ | Error _ -> ());
         (match Fixtures.appointment_of_string s with Ok _ | Error _ -> ());
         true))

let test_kind_confusion_rejected () =
  (* An appointment's bytes decode as an appointment, never as an RMC,
     and the other way round. *)
  let appt_bytes =
    Fixtures.appointment_to_string
      (Appointment.issue ~master_secret:secret ~epoch:0 ~id:(Ident.make "cert" 3)
         ~issuer:(Ident.make "service" 1) ~kind:"member" ~args:[] ~holder:"h" ~issued_at:0.0 ())
  in
  (match Codec.of_string appt_bytes with
  | Ok (Codec.Appointment _) -> ()
  | Ok (Codec.Rmc _) | Error _ -> Alcotest.fail "kind confusion");
  let rmc_bytes =
    Fixtures.rmc_to_string
      (Rmc.issue ~secret ~principal_key:"k" ~id:(Ident.make "cert" 4)
         ~issuer:(Ident.make "service" 1) ~role:"r" ~args:[] ~issued_at:0.0)
  in
  match Codec.of_string rmc_bytes with
  | Ok (Codec.Rmc _) -> ()
  | Ok (Codec.Appointment _) | Error _ -> Alcotest.fail "kind confusion"

let test_trailing_bytes_rejected () =
  let sample =
    Fixtures.rmc_to_string
      (Rmc.issue ~secret ~principal_key:"k" ~id:(Ident.make "cert" 5)
         ~issuer:(Ident.make "service" 1) ~role:"r" ~args:[] ~issued_at:0.0)
  in
  match Fixtures.rmc_of_string (sample ^ "extra") with
  | Ok _ -> Alcotest.fail "trailing bytes accepted"
  | Error _ -> ()

let test_size_matches_encoding () =
  let rmc =
    Rmc.issue ~secret ~principal_key:"k" ~id:(Ident.make "cert" 6)
      ~issuer:(Ident.make "service" 1) ~role:"doctor"
      ~args:[ Value.Int 1 ]
      ~issued_at:0.0
  in
  (* size_bytes = fields + 32-byte signature; the codec encodes the signature
     as a string field (a few bytes of framing). They must agree closely. *)
  let encoded = String.length (Fixtures.rmc_to_string rmc) in
  let claimed = Rmc.size_bytes rmc in
  Alcotest.(check bool)
    (Printf.sprintf "within framing slack (%d vs %d)" encoded claimed)
    true
    (abs (encoded - claimed) < 16)

(* Random [Wire] field lists over the spellings whose bytes and lengths
   vary most: signs, [min_int] / [max_int], empty strings, negative ident
   numbers, and every float class — signed zeros, subnormals, infinities,
   NaNs of either sign and any payload, and arbitrary bit patterns. *)
let wire_gen =
  let open QCheck.Gen in
  let any_int = oneof [ small_signed_int; int; oneofl [ 0; -1; min_int; max_int; min_int + 1 ] ] in
  let with_bits mask set =
    map (fun b -> Int64.float_of_bits (Int64.logor (Int64.logand b mask) set)) int64
  in
  let any_float =
    oneof
      [
        float;
        map Int64.float_of_bits int64;
        (* exponent field zero: a subnormal, or a zero of either sign *)
        with_bits 0x800F_FFFF_FFFF_FFFFL 0L;
        (* exponent field all ones and some fraction bit set: a NaN *)
        with_bits 0x800F_FFFF_FFFF_FFFFL 0x7FF0_0000_0000_0001L;
        (* a short fraction, so trailing zero digits are dropped *)
        with_bits 0xFFFF_F000_0000_0000L 0L;
        oneofl
          [ Float.nan; -.Float.nan; Float.infinity; Float.neg_infinity; 0.0; -0.0; 4.9e-324;
            Float.min_float; Float.max_float; 1.0; -2.5 ];
      ]
  in
  let any_string = string_size (int_bound 12) in
  let ident = map2 Ident.make (string_size ~gen:(char_range 'a' 'z') (int_bound 8)) any_int in
  let value =
    oneof
      [
        map (fun n -> Value.Int n) any_int;
        map (fun s -> Value.Str s) any_string;
        map (fun b -> Value.Bool b) bool;
        map (fun f -> Value.Time f) any_float;
        map (fun i -> Value.Id i) ident;
      ]
  in
  let field =
    oneof
      [
        map (fun i -> Wire.Fident i) ident;
        map (fun s -> Wire.Fstring s) any_string;
        map (fun v -> Wire.Fvalue v) value;
        map (fun f -> Wire.Ffloat f) any_float;
        map (fun n -> Wire.Fint n) any_int;
        map (fun vs -> Wire.Fvalues vs) (list_size (int_bound 5) value);
      ]
  in
  QCheck.make (pair any_string (list_size (int_bound 8) field))

(* Sizing adds up field lengths instead of encoding; it must agree with the
   encoding byte for byte. *)
let test_size_bytes_is_encoded_length () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:2000 ~name:"size_bytes = encoded length + 32" wire_gen
       (fun (tag, fields) ->
         Wire.size_bytes tag fields = String.length (Wire.encode tag fields) + 32))

(* The encoder as it was written before the one-pass writer: every field
   rendered on its own ([string_of_int], [Printf "%h"], [Printf "%s#%d"])
   into a sub-buffer, then framed with its length. It is the oracle for the
   one-pass [Wire.encode], whose bytes every signature and every hash-chain
   link rests on. *)
module Reference_wire = struct
  let add_lp buf tag payload =
    Buffer.add_char buf tag;
    Buffer.add_string buf (string_of_int (String.length payload));
    Buffer.add_char buf ':';
    Buffer.add_string buf payload

  let ident id = Printf.sprintf "%s#%d" (Ident.tag id) (Ident.number id)

  let value buf = function
    | Value.Int n -> add_lp buf 'i' (string_of_int n)
    | Value.Str s -> add_lp buf 's' s
    | Value.Bool b -> add_lp buf 'b' (if b then "1" else "0")
    | Value.Time f -> add_lp buf 't' (Printf.sprintf "%h" f)
    | Value.Id i -> add_lp buf 'd' (ident i)

  let values vs =
    let b = Buffer.create 32 in
    List.iter (value b) vs;
    Buffer.contents b

  let field buf = function
    | Wire.Fident id -> add_lp buf 'I' (ident id)
    | Wire.Fstring s -> add_lp buf 'S' s
    | Wire.Fvalue v -> add_lp buf 'V' (values [ v ])
    | Wire.Ffloat f -> add_lp buf 'F' (Printf.sprintf "%h" f)
    | Wire.Fint n -> add_lp buf 'N' (string_of_int n)
    | Wire.Fvalues vs -> add_lp buf 'L' (values vs)

  let encode tag fields =
    let buf = Buffer.create 128 in
    add_lp buf 'T' tag;
    List.iter (field buf) fields;
    Buffer.contents buf
end

let test_encode_matches_reference () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:3000 ~name:"encode = reference encoder" wire_gen (fun (tag, fields) ->
         let encoded = Wire.encode tag fields in
         String.equal encoded (Reference_wire.encode tag fields)
         && String.length encoded + 32 = Wire.size_bytes tag fields
         &&
         (* and at an offset inside a larger buffer, as the decision log
            reuses one *)
         let buf = Bytes.make (String.length encoded + 5) '?' in
         Wire.write buf 3 tag fields = String.length encoded + 3
         && String.equal (Bytes.sub_string buf 3 (String.length encoded)) encoded
         && Bytes.sub_string buf 0 3 = "???"
         && Bytes.sub_string buf (String.length encoded + 3) 2 = "??"))

(* ---------------- Canonical-encoding regressions ---------------- *)

(* Replace the unique occurrence of [before] in [s]; the tests below rewrite
   specific TLV frames, so a missing or ambiguous pattern is a test bug. *)
let rewrite s ~before ~after =
  let n = String.length s and m = String.length before in
  let rec find i =
    if i + m > n then Alcotest.failf "pattern %S not found" before
    else if String.equal (String.sub s i m) before then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub s 0 i ^ after ^ String.sub s (i + m) (n - i - m)

(* [Wire.decode] inverts [Wire.encode] over the same spellings: every float
   class (a NaN's payload is not encoded, so NaNs compare as equal),
   [min_int] / [max_int], negative ident numbers, empty strings and nested
   value lists. *)
let field_equal a b =
  let value_equal x y =
    match (x, y) with
    | Value.Time f, Value.Time g -> Float.equal f g
    | _ -> Value.equal x y
  in
  let values_equal xs ys = List.length xs = List.length ys && List.for_all2 value_equal xs ys in
  match (a, b) with
  | Wire.Fident x, Wire.Fident y -> Ident.equal x y
  | Fstring x, Fstring y -> String.equal x y
  | Fvalue x, Fvalue y -> value_equal x y
  | Ffloat x, Ffloat y -> Float.equal x y
  | Fint x, Fint y -> x = y
  | Fvalues xs, Fvalues ys -> values_equal xs ys
  | _ -> false

let test_decode_inverts_encode () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:3000 ~name:"decode (encode tag fields) = (tag, fields)" wire_gen
       (fun (tag, fields) ->
         let encoded = Wire.encode tag fields in
         match Wire.decode encoded with
         | Ok (tag', fields') ->
             String.equal tag tag'
             && List.length fields = List.length fields'
             && List.for_all2 field_equal fields fields'
             && String.equal (Wire.encode tag' fields') encoded
         | Error { Wire.offset; reason } ->
             QCheck.Test.fail_reportf "refused at %d: %s" offset reason))

(* Strictness: a byte changed anywhere either fails to decode or decodes to
   fields that re-encode to the changed bytes; and the spellings a lenient
   parser would also accept are refused. *)
let test_decode_is_strict () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:2000 ~name:"whatever decodes re-encodes to itself"
       QCheck.(pair wire_gen (pair small_nat (int_range 0 255)))
       (fun ((tag, fields), (at, replacement)) ->
         let mutated = Bytes.of_string (Wire.encode tag fields) in
         Bytes.set mutated (at mod Bytes.length mutated) (Char.chr replacement);
         let mutated = Bytes.to_string mutated in
         match Wire.decode mutated with
         | Ok (tag', fields') -> String.equal (Wire.encode tag' fields') mutated
         | Error _ -> true));
  let sample =
    Wire.encode "t"
      Wire.[ Ffloat 9.0; Fint 5; Fident (Ident.make "p" (-3)); Fvalue (Value.Bool true) ]
  in
  Alcotest.(check string) "sample spelling" "T1:tF8:0x1.2p+3N1:5I4:p#-3V4:b1:1" sample;
  Alcotest.(check bool) "sample decodes" true (Result.is_ok (Wire.decode sample));
  List.iter
    (fun (before, after) ->
      match Wire.decode (rewrite sample ~before ~after) with
      | Ok _ -> Alcotest.failf "non-canonical %S decoded" after
      | Error _ -> ())
    [
      ("T1:t", "T01:t"); (* leading zero in a length *)
      ("N1:5", "N01:5"); (* and in a field length *)
      ("F8:0x1.2p+3", "F6:0x9p+0"); (* 9.0, not as "%h" spells it *)
      ("F8:0x1.2p+3", "F3:9.0"); (* decimal *)
      ("F8:0x1.2p+3", "F9:0x1.20p+3"); (* trailing zero digit *)
      ("N1:5", "N2:+5"); (* explicit sign *)
      ("N1:5", "N2:05"); (* leading zero *)
      ("N1:5", "N3:0x5"); (* hex *)
      ("I4:p#-3", "I5:p#-03"); (* leading zero in an ident number *)
      ("V4:b1:1", "V4:b1:2"); (* a bool other than 0 / 1 *)
      ("V4:b1:1", "V8:b1:1b1:0"); (* two values in one value field *)
      ("V4:b1:1", "V0:"); (* none *)
      ("N1:5", "X1:5"); (* unknown field tag *)
    ];
  match Wire.decode (sample ^ "N") with
  | Ok _ -> Alcotest.fail "a trailing partial frame decoded"
  | Error _ -> ()

let sample_rmc ?(args = [ Value.Int 1 ]) () =
  Rmc.issue ~secret ~principal_key:"k" ~id:(Ident.make "cert" 11)
    ~issuer:(Ident.make "service" 1) ~role:"doctor" ~args ~issued_at:3.0

let test_noncanonical_lengths_rejected () =
  (* The strict decimal length rule: anything [int_of_string_opt] would also
     admit re-frames the same certificate bytes and must be refused. *)
  let sample = Fixtures.rmc_to_string (sample_rmc ()) in
  List.iter
    (fun (before, after) ->
      match Fixtures.rmc_of_string (rewrite sample ~before ~after) with
      | Ok _ -> Alcotest.failf "non-canonical length %S decoded" after
      | Error _ -> ())
    [
      ("T3:rmc", "T0x3:rmc"); (* hex *)
      ("T3:rmc", "T+3:rmc"); (* explicit sign *)
      ("T3:rmc", "T03:rmc"); (* leading zero *)
      ("S32:", "S3_2:"); (* underscore separator, signature field *)
      ("S32:", "S032:"); (* leading zero, two digits *)
    ]

let test_nan_timestamp_rejected () =
  (* A NaN expiry used to decode as "never expires"; now any NaN timestamp
     byte pattern is refused outright. *)
  let appt expires_at =
    Appointment.issue ~master_secret:secret ~epoch:1 ~id:(Ident.make "cert" 12)
      ~issuer:(Ident.make "service" 1) ~kind:"member" ~args:[] ~holder:"h" ~issued_at:1.0
      ~expires_at ()
  in
  let sample = Fixtures.appointment_to_string (appt 9.0) in
  (match Fixtures.appointment_of_string (rewrite sample ~before:"F8:0x1.2p+3" ~after:"F3:nan") with
  | Ok _ -> Alcotest.fail "NaN expiry decoded"
  | Error _ -> ());
  (* The encoder itself can be handed NaN; its output must not decode. *)
  (match Fixtures.appointment_of_string (Fixtures.appointment_to_string (appt Float.nan)) with
  | Ok _ -> Alcotest.fail "encoded NaN expiry decoded"
  | Error _ -> ());
  (* Non-canonical spellings of real floats are also refused... *)
  (match Fixtures.appointment_of_string (rewrite sample ~before:"F8:0x1.2p+3" ~after:"F4:-inf") with
  | Ok _ -> Alcotest.fail "non-canonical -inf decoded"
  | Error _ -> ());
  (* ...but the canonical ones keep their meaning: +infinity is "never
     expires", -infinity is "expired since forever", not None. *)
  (match Fixtures.appointment_of_string (rewrite sample ~before:"F8:0x1.2p+3" ~after:"F8:infinity") with
  | Ok a -> Alcotest.(check bool) "+infinity is None" true (a.Appointment.expires_at = None)
  | Error e -> Alcotest.failf "+infinity refused: %s" (Format.asprintf "%a" Codec.pp_error e));
  match Fixtures.appointment_of_string (rewrite sample ~before:"F8:0x1.2p+3" ~after:"F9:-infinity") with
  | Ok a ->
      Alcotest.(check bool) "-infinity stays Some" true
        (a.Appointment.expires_at = Some Float.neg_infinity)
  | Error e -> Alcotest.failf "-infinity refused: %s" (Format.asprintf "%a" Codec.pp_error e)

let test_special_floats_roundtrip () =
  (* Every special but representable timestamp survives the round trip. *)
  List.iter
    (fun f ->
      let appt =
        Appointment.issue ~master_secret:secret ~epoch:0 ~id:(Ident.make "cert" 13)
          ~issuer:(Ident.make "service" 1) ~kind:"member" ~args:[ Value.Time f ] ~holder:"h"
          ~issued_at:f ~expires_at:f ()
      in
      match Fixtures.appointment_of_string (Fixtures.appointment_to_string appt) with
      | Ok decoded -> Alcotest.(check bool) (Printf.sprintf "roundtrip %h" f) true (appt_equal appt decoded)
      | Error e ->
          Alcotest.failf "special float %h refused: %s" f (Format.asprintf "%a" Codec.pp_error e))
    [
      0.0;
      -0.0;
      Float.min_float;
      Float.max_float;
      4.9e-324 (* subnormal *);
      -1.5e308;
      Float.neg_infinity;
    ]

let test_malformed_bool_rejected () =
  (* A bool body other than "0"/"1" used to decode as false; now only the
     two canonical bodies are values at all. *)
  let sample = Fixtures.rmc_to_string (sample_rmc ~args:[ Value.Bool true ] ()) in
  List.iter
    (fun (before, after) ->
      match Fixtures.rmc_of_string (rewrite sample ~before ~after) with
      | Ok _ -> Alcotest.failf "bool body %S decoded" after
      | Error _ -> ())
    [ ("b1:1", "b1:2"); ("b1:1", "b4:true"); ("b1:1", "b0:") ];
  match Fixtures.rmc_of_string (rewrite sample ~before:"b1:1" ~after:"b1:0") with
  | Ok decoded -> Alcotest.(check bool) "b1:0 is false" true (decoded.Rmc.args = [ Value.Bool false ])
  | Error _ -> Alcotest.fail "canonical false refused"

let test_decode_is_canonical () =
  (* decode ∘ encode is the identity on bytes: anything that decodes at all
     re-encodes byte-identically, so each certificate has exactly one wire
     form and a signature over it covers every decodable presentation. *)
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:300 ~name:"unique wire form"
       QCheck.(pair (make rmc_gen) (pair small_nat (int_range 0 255)))
       (fun (rmc, (at, replacement)) ->
         let bytes = Fixtures.rmc_to_string rmc in
         (match Fixtures.rmc_of_string bytes with
         | Ok decoded -> assert (String.equal (Fixtures.rmc_to_string decoded) bytes)
         | Error _ -> assert false);
         let mutated = Bytes.of_string bytes in
         Bytes.set mutated (at mod Bytes.length mutated) (Char.chr replacement);
         let mutated = Bytes.to_string mutated in
         match Fixtures.rmc_of_string mutated with
         | Ok decoded -> String.equal (Fixtures.rmc_to_string decoded) mutated
         | Error _ -> true))

let suite =
  ( "codec",
    [
      Alcotest.test_case "rmc roundtrip (qcheck)" `Quick test_rmc_roundtrip;
      Alcotest.test_case "appt roundtrip (qcheck)" `Quick test_appt_roundtrip;
      Alcotest.test_case "verification invariant" `Quick test_roundtrip_preserves_verification;
      Alcotest.test_case "truncation totality" `Quick test_decoder_total_on_truncation;
      Alcotest.test_case "mutation totality" `Quick test_decoder_total_on_mutation;
      Alcotest.test_case "garbage totality (qcheck)" `Quick test_decoder_random_garbage;
      Alcotest.test_case "wire decode inverts encode (qcheck)" `Quick test_decode_inverts_encode;
      Alcotest.test_case "wire decode is strict (qcheck)" `Quick test_decode_is_strict;
      Alcotest.test_case "kind confusion" `Quick test_kind_confusion_rejected;
      Alcotest.test_case "trailing bytes" `Quick test_trailing_bytes_rejected;
      Alcotest.test_case "size accounting" `Quick test_size_matches_encoding;
      Alcotest.test_case "size without encoding (qcheck)" `Quick test_size_bytes_is_encoded_length;
      Alcotest.test_case "one-pass encode = reference (qcheck)" `Quick
        test_encode_matches_reference;
      Alcotest.test_case "non-canonical lengths" `Quick test_noncanonical_lengths_rejected;
      Alcotest.test_case "NaN timestamps" `Quick test_nan_timestamp_rejected;
      Alcotest.test_case "special floats roundtrip" `Quick test_special_floats_roundtrip;
      Alcotest.test_case "malformed bools" `Quick test_malformed_bool_rejected;
      Alcotest.test_case "unique wire form (qcheck)" `Quick test_decode_is_canonical;
    ] )
