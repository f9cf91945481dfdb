(* Offline-verifiable signed credentials (DESIGN.md §12): the Schnorr
   layer, signature packing, the issuer key hierarchy, and the zero-RPC
   validation path end to end. *)

module World = Oasis_core.World
module Service = Oasis_core.Service
module Principal = Oasis_core.Principal
module Protocol = Oasis_core.Protocol
module Civ = Oasis_domain.Civ
module Signed = Oasis_cert.Signed
module Rmc = Oasis_cert.Rmc
module Appointment = Oasis_cert.Appointment
module Codec = Oasis_cert.Codec
module Schnorr = Oasis_crypto.Schnorr
module Elgamal = Oasis_crypto.Elgamal
module Modp = Oasis_crypto.Modp
module Sha256 = Oasis_crypto.Sha256
module Rng = Oasis_util.Rng
module Ident = Oasis_util.Ident
module Value = Oasis_util.Value

let ok = function
  | Ok v -> v
  | Error d -> Alcotest.failf "unexpected denial: %s" (Protocol.denial_to_string d)

(* ---------------- Schnorr primitives ---------------- *)

let test_sign_verify () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:100 ~name:"sign/verify"
       QCheck.(pair small_nat (string_of_size Gen.(int_bound 200)))
       (fun (seed, msg) ->
         let rng = Rng.create (seed + 1) in
         let kp = Schnorr.generate rng in
         let sg = Schnorr.sign ~secret:kp.Schnorr.secret rng msg in
         Schnorr.verify ~public:kp.Schnorr.public msg sg
         && (not (Schnorr.verify ~public:kp.Schnorr.public (msg ^ "x") sg))
         &&
         let other = Schnorr.generate rng in
         (* The redraw loop guarantees distinct keys are overwhelmingly
            likely; skip the degenerate collision. *)
         Int64.equal other.Schnorr.public kp.Schnorr.public
         || not (Schnorr.verify ~public:other.Schnorr.public msg sg)))

let test_tampered_signature_rejected () =
  let rng = Rng.create 42 in
  let kp = Schnorr.generate rng in
  let sg = Schnorr.sign ~secret:kp.Schnorr.secret rng "credential bytes" in
  Alcotest.(check bool) "genuine verifies" true
    (Schnorr.verify ~public:kp.Schnorr.public "credential bytes" sg);
  Alcotest.(check bool) "flipped e rejected" false
    (Schnorr.verify ~public:kp.Schnorr.public "credential bytes"
       { sg with Schnorr.e = Int64.logxor sg.Schnorr.e 1L });
  Alcotest.(check bool) "flipped s rejected" false
    (Schnorr.verify ~public:kp.Schnorr.public "credential bytes"
       { sg with Schnorr.s = Int64.logxor sg.Schnorr.s 1L });
  Alcotest.(check bool) "out-of-range scalar rejected" false
    (Schnorr.verify ~public:kp.Schnorr.public "credential bytes" { sg with Schnorr.s = -1L })

let test_signature_packing () =
  let rng = Rng.create 7 in
  let kp = Schnorr.generate rng in
  for i = 0 to 19 do
    let sg = Schnorr.sign ~secret:kp.Schnorr.secret rng (string_of_int i) in
    match Schnorr.of_digest (Schnorr.to_digest sg) with
    | Some sg' ->
        Alcotest.(check bool) "packing roundtrip" true
          (Int64.equal sg.Schnorr.e sg'.Schnorr.e && Int64.equal sg.Schnorr.s sg'.Schnorr.s)
    | None -> Alcotest.fail "packed signature did not unpack"
  done;
  (* An HMAC digest is effectively random 32 bytes: its 16-byte pad is
     non-zero, so scheme confusion is caught at unpacking. *)
  let hmac = Sha256.digest_string "any hmac value" in
  Alcotest.(check bool) "HMAC digest rejected as signature" true
    (Schnorr.of_digest hmac = None)

(* Keys and signatures drawn from a fixed seed, recorded before the field
   arithmetic moved from boxed int64 to native ints: the rewrite must
   reproduce them exactly, scalar for scalar. *)
let test_golden_signatures () =
  let rng = Rng.create 2024 in
  let kp = Schnorr.generate rng in
  Alcotest.(check int64) "public" 557708226356091013L kp.Schnorr.public;
  Alcotest.(check int64) "secret" 2264624435582397653L kp.Schnorr.secret;
  List.iter
    (fun (msg, e, s) ->
      let sg = Schnorr.sign ~secret:kp.Schnorr.secret rng msg in
      Alcotest.(check int64) (Printf.sprintf "e of %S" msg) e sg.Schnorr.e;
      Alcotest.(check int64) (Printf.sprintf "s of %S" msg) s sg.Schnorr.s;
      Alcotest.(check bool) "verifies" true (Schnorr.verify ~public:kp.Schnorr.public msg sg))
    [
      ("", 1067730812800852036L, 1547731453926971634L);
      ("abc", 1023928602436586986L, 1462295602618570959L);
      ("oasis credential", 51429675513684926L, 2232061395260517897L);
      (String.make 200 'z', 78508568243152263L, 1589820879348330077L);
    ];
  Alcotest.(check int64) "pow" 1049267445988448792L (Modp.pow 3L 1234567890123456789L);
  Alcotest.(check int64) "pow, top exponent bit" 78125L (Modp.pow 5L Int64.max_int)

(* ---------------- Public-key parsing (satellite 4) ---------------- *)

let test_public_of_string_strict () =
  List.iter
    (fun s ->
      Alcotest.(check bool) (Printf.sprintf "%S rejected" s) true
        (Elgamal.public_of_string s = None))
    [
      "";
      "abc";
      "+5" (* explicit sign *);
      "0x5" (* hex *);
      "1_0" (* underscore *);
      "007" (* leading zeros *);
      "0" (* out of range *);
      "1" (* identity *);
      Int64.to_string Modp.p (* = p, not a residue *);
      Int64.to_string (Int64.sub Modp.p 1L) (* order-2 element *);
      "-3";
    ];
  List.iter
    (fun s ->
      match Elgamal.public_of_string s with
      | Some v -> Alcotest.(check string) "canonical parse" s (Int64.to_string v)
      | None -> Alcotest.failf "%S refused" s)
    [ "2"; "5"; Int64.to_string (Int64.sub Modp.p 2L) ]

(* ---------------- Key hierarchy ---------------- *)

let test_chain_verifies () =
  let auth = Signed.create_authority (Rng.create 99) in
  let kp = Signed.generate_keypair auth in
  let chain =
    Signed.enrol auth ~subject:(Ident.make "service" 1) ~subject_pk:kp.Schnorr.public
      ~key_epoch:0 ~now:1.0
  in
  Alcotest.(check bool) "chain verifies at root address" true
    (Signed.verify_chain ~address:(Signed.address auth) chain);
  Alcotest.(check bool) "wrong address rejected" false
    (Signed.verify_chain ~address:(String.make 64 '0') chain);
  (* Tampering with any certified field breaks the root signature. *)
  let tampered = { chain with Signed.cert = { chain.Signed.cert with Signed.key_epoch = 1 } } in
  Alcotest.(check bool) "tampered key cert rejected" false
    (Signed.verify_chain ~address:(Signed.address auth) tampered);
  (* A substituted root key changes the address: the trust anchor itself
     cannot be swapped out underneath the verifier. *)
  let evil = Signed.create_authority (Rng.create 100) in
  let evil_kp = Signed.generate_keypair evil in
  let forged =
    Signed.enrol evil ~subject:(Ident.make "service" 1) ~subject_pk:evil_kp.Schnorr.public
      ~key_epoch:0 ~now:1.0
  in
  Alcotest.(check bool) "foreign root rejected" false
    (Signed.verify_chain ~address:(Signed.address auth) forged)

let test_signed_rmc_roundtrip () =
  let auth = Signed.create_authority (Rng.create 5) in
  let kp = Signed.generate_keypair auth in
  let issuer = Ident.make "service" 3 in
  let chain = Signed.enrol auth ~subject:issuer ~subject_pk:kp.Schnorr.public ~key_epoch:0 ~now:0.0 in
  let address = Signed.address auth in
  let rmc =
    Signed.issue_rmc ~keypair:kp ~rng:(Signed.rng auth) ~principal_key:"pk-alice"
      ~id:(Ident.make "cert" 1) ~issuer ~role:"doctor"
      ~args:[ Value.Int 4; Value.Str "ward" ]
      ~issued_at:2.5
  in
  (* sign → encode → decode → verify, all offline *)
  let decoded =
    match Codec.rmc_of_string (Codec.rmc_to_string rmc) with
    | Ok d -> d
    | Error _ -> Alcotest.fail "signed rmc did not decode"
  in
  Alcotest.(check bool) "decoded rmc verifies" true
    (Signed.verify_rmc ~address ~chain ~principal_key:"pk-alice" decoded);
  Alcotest.(check bool) "stolen certificate rejected" false
    (Signed.verify_rmc ~address ~chain ~principal_key:"pk-mallory" decoded);
  Alcotest.(check bool) "tampered args rejected" false
    (Signed.verify_rmc ~address ~chain ~principal_key:"pk-alice"
       (Rmc.with_args decoded [ Value.Int 5 ]));
  (* issuer/chain subject mismatch: a valid chain for another service must
     not vouch for this certificate *)
  let kp2 = Signed.generate_keypair auth in
  let other_chain =
    Signed.enrol auth ~subject:(Ident.make "service" 4) ~subject_pk:kp2.Schnorr.public
      ~key_epoch:0 ~now:0.0
  in
  Alcotest.(check bool) "foreign chain rejected" false
    (Signed.verify_rmc ~address ~chain:other_chain ~principal_key:"pk-alice" decoded)

let test_signed_appointment_roundtrip () =
  let auth = Signed.create_authority (Rng.create 6) in
  let kp = Signed.generate_keypair auth in
  let issuer = Ident.make "service" 8 in
  let chain = Signed.enrol auth ~subject:issuer ~subject_pk:kp.Schnorr.public ~key_epoch:2 ~now:0.0 in
  let address = Signed.address auth in
  let appt =
    Signed.issue_appointment ~keypair:kp ~rng:(Signed.rng auth) ~epoch:2 ~id:(Ident.make "cert" 2)
      ~issuer ~kind:"employee" ~args:[ Value.Int 1 ] ~holder:"hk" ~issued_at:1.0 ~expires_at:10.0 ()
  in
  let decoded =
    match Codec.appointment_of_string (Codec.appointment_to_string appt) with
    | Ok d -> d
    | Error _ -> Alcotest.fail "signed appointment did not decode"
  in
  Alcotest.(check bool) "verifies before expiry" true
    (Signed.verify_appointment ~address ~chain ~now:5.0 decoded);
  Alcotest.(check bool) "expired rejected" false
    (Signed.verify_appointment ~address ~chain ~now:11.0 decoded);
  (* Every byte of the protected fields is covered: flip each one and the
     certificate must either stop decoding or stop verifying. *)
  let bytes = Codec.appointment_to_string appt in
  for i = 0 to String.length bytes - 1 do
    let mutated = Bytes.of_string bytes in
    Bytes.set mutated i (Char.chr (Char.code bytes.[i] lxor 1));
    match Codec.appointment_of_string (Bytes.to_string mutated) with
    | Error _ -> ()
    | Ok d ->
        if Signed.verify_appointment ~address ~chain ~now:5.0 d then
          Alcotest.failf "byte %d flipped yet still verifies" i
  done;
  (* Epoch currency: a rotation re-enrols under a bumped epoch and strands
     certificates signed for the old one. *)
  let chain' = Signed.enrol auth ~subject:issuer ~subject_pk:kp.Schnorr.public ~key_epoch:3 ~now:2.0 in
  Alcotest.(check bool) "stale epoch rejected" false
    (Signed.verify_appointment ~address ~chain:chain' ~now:5.0 decoded)

(* ---------------- The zero-RPC validation path ---------------- *)

let signing offline_sign = { Service.default_config with Service.offline_sign }

let activate_derived world issuer relying =
  let p = Principal.create world ~name:"p" in
  World.run_proc world (fun () ->
      let s = Principal.start_session p in
      ignore (ok (Principal.activate p s issuer ~role:"base" ()));
      ignore (ok (Principal.activate p s relying ~role:"derived" ())));
  World.settle world

let test_offline_path_zero_rpcs () =
  (* How a presented credential is verified follows its issuer's chain, not
     the relying service's own signing scheme: an HMAC-signing relying
     service verifies an enrolled issuer's RMC offline too. *)
  List.iter
    (fun relying_signs_offline ->
      let world = World.create ~seed:23 () in
      let issuer =
        Service.create world ~name:"issuer" ~policy:"initial base <- env:eq(1, 1);" ()
      in
      let relying =
        Service.create world ~name:"relying" ~config:(signing relying_signs_offline)
          ~policy:"derived <- *base@issuer;" ()
      in
      activate_derived world issuer relying;
      let st = Service.stats relying in
      Alcotest.(check int) "no validation callbacks" 0 st.Service.callbacks_out;
      Alcotest.(check bool) "offline validations counted" true
        (st.Service.offline_validations >= 1);
      Alcotest.(check int) "issuer answered nothing" 0 (Service.stats issuer).Service.callbacks_in)
    [ true; false ]

let test_unenrolled_issuer_falls_back () =
  (* The issuer signs with the epoch HMAC (no chain with the root); a
     relying service must fall back to the callback and still grant. *)
  let world = World.create ~seed:29 () in
  let issuer =
    Service.create world ~name:"issuer" ~config:(signing false)
      ~policy:"initial base <- env:eq(1, 1);" ()
  in
  let relying = Service.create world ~name:"relying" ~policy:"derived <- *base@issuer;" () in
  activate_derived world issuer relying;
  let st = Service.stats relying in
  Alcotest.(check bool) "fell back to callbacks" true (st.Service.callbacks_out >= 1);
  Alcotest.(check int) "no offline validations" 0 st.Service.offline_validations;
  Alcotest.(check int) "granted" 1
    (List.length (Service.active_roles_named relying "derived"))

let test_revoked_represented_denied_offline () =
  (* A revocation witnessed over the dependency watch poisons the cache;
     re-presenting the dead certificate is refused locally, still with zero
     callbacks. *)
  let world = World.create ~seed:31 () in
  let civ = Civ.create world ~name:"authority" () in
  let club =
    Service.create world ~name:"club" ~policy:"initial member(u) <- *appt:badge(u)@authority;" ()
  in
  let p = Principal.create world ~name:"p" in
  let badge =
    Civ.issue civ ~kind:"badge"
      ~args:[ Value.Id (Principal.id p) ]
      ~holder:(Principal.id p) ~holder_key:(Principal.longterm_public p) ()
  in
  Principal.grant_appointment p badge;
  World.settle world;
  World.run_proc world (fun () ->
      let s = Principal.start_session p in
      ignore (ok (Principal.activate p s club ~role:"member" ())));
  World.settle world;
  ignore (Civ.revoke civ badge.Appointment.id ~reason:"lapsed");
  World.settle world;
  Alcotest.(check int) "watch collapsed the role" 0
    (List.length (Service.active_roles_named club "member"));
  World.run_proc world (fun () ->
      let s2 = Principal.start_session p in
      match Principal.activate p s2 club ~role:"member" () with
      | Error Protocol.No_proof -> ()
      | Ok _ -> Alcotest.fail "revoked badge re-accepted"
      | Error d -> Alcotest.failf "unexpected denial: %s" (Protocol.denial_to_string d));
  Alcotest.(check int) "all of it without callbacks" 0 (Service.stats club).Service.callbacks_out

let test_decommission_revokes_chain () =
  let world = World.create ~seed:37 () in
  let issuer = Service.create world ~name:"issuer" ~policy:"initial base <- env:eq(1, 1);" () in
  let auth = World.authority world in
  Alcotest.(check bool) "enrolled on create" true
    (Signed.chain_for auth (Service.id issuer) <> None);
  ignore (Service.decommission issuer ~reason:"retired");
  Alcotest.(check bool) "chain withdrawn on decommission" true
    (Signed.chain_for auth (Service.id issuer) = None)

let suite =
  ( "signed",
    [
      Alcotest.test_case "sign/verify (qcheck)" `Quick test_sign_verify;
      Alcotest.test_case "tampered signature" `Quick test_tampered_signature_rejected;
      Alcotest.test_case "signature packing" `Quick test_signature_packing;
      Alcotest.test_case "golden signatures" `Quick test_golden_signatures;
      Alcotest.test_case "strict public-key parse" `Quick test_public_of_string_strict;
      Alcotest.test_case "key chain" `Quick test_chain_verifies;
      Alcotest.test_case "signed rmc roundtrip" `Quick test_signed_rmc_roundtrip;
      Alcotest.test_case "signed appointment roundtrip" `Quick test_signed_appointment_roundtrip;
      Alcotest.test_case "offline path zero RPCs" `Quick test_offline_path_zero_rpcs;
      Alcotest.test_case "unenrolled issuer falls back" `Quick test_unenrolled_issuer_falls_back;
      Alcotest.test_case "revoked re-presentation" `Quick test_revoked_represented_denied_offline;
      Alcotest.test_case "decommission revokes chain" `Quick test_decommission_revokes_chain;
    ] )
