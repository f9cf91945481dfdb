(* Certificates: Fig. 4 security properties, credential records, caching. *)

module Rmc = Oasis_cert.Rmc
module Appointment = Oasis_cert.Appointment
module Cr = Oasis_cert.Credential_record
module Vcache = Oasis_cert.Validation_cache
module Wire = Oasis_cert.Wire
module Secret = Oasis_crypto.Secret
module Ident = Oasis_util.Ident
module Value = Oasis_util.Value
module Rng = Oasis_util.Rng
module Obs = Oasis_obs.Obs

let secret = Secret.of_string "test-secret-0123456789abcdef0123"
let other_secret = Secret.of_string "other-secret-123456789abcdef012"
let issuer = Ident.make "service" 1
let cert_id = Ident.make "cert" 1

let sample_rmc ?(args = [ Value.Id (Ident.make "principal" 3); Value.Int 5 ]) ?(key = "session-key") () =
  Rmc.issue ~secret ~principal_key:key ~id:cert_id ~issuer ~role:"treating_doctor" ~args
    ~issued_at:10.0

(* ---------------- RMC (Fig. 4) ---------------- *)

let test_rmc_verify () =
  let rmc = sample_rmc () in
  Alcotest.(check bool) "verifies" true (Rmc.verify ~secret ~principal_key:"session-key" rmc)

let test_rmc_tamper_args () =
  (* Protection from tampering. *)
  let rmc = sample_rmc () in
  let forged = Rmc.with_args rmc [ Value.Id (Ident.make "principal" 4); Value.Int 5 ] in
  Alcotest.(check bool) "tampered fields rejected" false
    (Rmc.verify ~secret ~principal_key:"session-key" forged)

let test_rmc_forgery_without_secret () =
  (* Protection from forgery: signing with a guessed secret fails. *)
  let forged =
    Rmc.issue ~secret:other_secret ~principal_key:"session-key" ~id:cert_id ~issuer
      ~role:"treating_doctor"
      ~args:[ Value.Int 5 ]
      ~issued_at:10.0
  in
  Alcotest.(check bool) "wrong secret rejected" false
    (Rmc.verify ~secret ~principal_key:"session-key" forged)

let test_rmc_theft () =
  (* Protection from theft: a stolen RMC presented under another session key. *)
  let rmc = sample_rmc () in
  Alcotest.(check bool) "thief's key rejected" false
    (Rmc.verify ~secret ~principal_key:"thief-session-key" rmc)

let test_rmc_principal_key_not_carried () =
  (* Fig. 4: the principal id is an argument of the signature, not a field. *)
  let rmc = sample_rmc ~key:"a-very-long-session-principal-key" () in
  let rmc2 = sample_rmc ~key:"x" () in
  Alcotest.(check int) "size independent of key" (Rmc.size_bytes rmc) (Rmc.size_bytes rmc2)

let test_rmc_size_grows_with_params () =
  let small = sample_rmc ~args:[ Value.Int 1 ] () in
  let large = sample_rmc ~args:(List.init 10 (fun i -> Value.Int i)) () in
  Alcotest.(check bool) "more params, bigger cert" true
    (Rmc.size_bytes large > Rmc.size_bytes small)

(* ---------------- Appointment certificates ---------------- *)

let sample_appt ?(epoch = 0) ?expires_at ?(holder = "holder-longterm-key") () =
  Appointment.issue ~master_secret:secret ~epoch ~id:cert_id ~issuer ~kind:"medically_qualified"
    ~args:[ Value.Id (Ident.make "principal" 3) ]
    ~holder ~issued_at:5.0 ?expires_at ()

let test_appt_verify () =
  let appt = sample_appt () in
  Alcotest.(check bool) "verifies" true
    (Appointment.verify ~master_secret:secret ~current_epoch:0 ~now:10.0 appt)

let test_appt_theft_rebind () =
  let appt = sample_appt () in
  let stolen = Appointment.with_holder appt "thief-key" in
  Alcotest.(check bool) "rebound holder rejected" false
    (Appointment.verify ~master_secret:secret ~current_epoch:0 ~now:10.0 stolen)

let test_appt_tamper_args () =
  let appt = sample_appt () in
  let forged = Appointment.with_args appt [ Value.Id (Ident.make "principal" 99) ] in
  Alcotest.(check bool) "tampered rejected" false
    (Appointment.verify ~master_secret:secret ~current_epoch:0 ~now:10.0 forged)

let test_appt_expiry () =
  let appt = sample_appt ~expires_at:100.0 () in
  Alcotest.(check bool) "before expiry" true
    (Appointment.verify ~master_secret:secret ~current_epoch:0 ~now:99.0 appt);
  Alcotest.(check bool) "at expiry" false
    (Appointment.verify ~master_secret:secret ~current_epoch:0 ~now:100.0 appt);
  Alcotest.(check bool) "expired flag" true (Appointment.expired ~now:100.0 appt);
  Alcotest.(check bool) "no expiry never expires" false
    (Appointment.expired ~now:1e12 (sample_appt ()))

let test_appt_epoch_rotation () =
  (* Sect. 4.1: re-issue under a new server secret invalidates old copies. *)
  let appt = sample_appt ~epoch:0 () in
  Alcotest.(check bool) "old epoch rejected" false
    (Appointment.verify ~master_secret:secret ~current_epoch:1 ~now:10.0 appt);
  Alcotest.(check bool) "signature itself still checks" true
    (Appointment.verify_ignoring_epoch ~master_secret:secret ~now:10.0 appt);
  let reissued = sample_appt ~epoch:1 () in
  Alcotest.(check bool) "re-issued verifies" true
    (Appointment.verify ~master_secret:secret ~current_epoch:1 ~now:10.0 reissued)

let test_appt_epoch_secrets_differ () =
  let e0 = sample_appt ~epoch:0 () and e1 = sample_appt ~epoch:1 () in
  Alcotest.(check bool) "epoch changes signature" false
    (Oasis_crypto.Sha256.equal e0.Appointment.signature e1.Appointment.signature)

(* ---------------- Secret rotation ---------------- *)

let test_secret_rotate_deterministic () =
  let r1 = Secret.rotate secret ~epoch:1 and r1' = Secret.rotate secret ~epoch:1 in
  Alcotest.(check bool) "deterministic" true (Secret.equal r1 r1');
  let r2 = Secret.rotate secret ~epoch:2 in
  Alcotest.(check bool) "epochs differ" false (Secret.equal r1 r2)

let test_secret_generate_distinct () =
  let rng = Rng.create 1 in
  Alcotest.(check bool) "distinct" false (Secret.equal (Secret.generate rng) (Secret.generate rng))

(* ---------------- Credential records ---------------- *)

let add_record store n =
  Cr.add store ~cert_id:(Ident.make "cert" n) ~issuer ~kind:Cr.Kind_rmc
    ~principal:(Ident.make "principal" 1) ~name:"doctor" ~args:[] ~issued_at:0.0

let test_cr_lifecycle () =
  let store = Cr.create_store () in
  let record = add_record store 1 in
  Alcotest.(check bool) "valid initially" true (Cr.is_valid record);
  Alcotest.(check bool) "findable" true (Cr.find store (Ident.make "cert" 1) <> None);
  (match Cr.revoke store (Ident.make "cert" 1) ~at:5.0 ~reason:"test" with
  | Some r -> Alcotest.(check bool) "same record" true (Ident.equal r.Cr.cert_id record.Cr.cert_id)
  | None -> Alcotest.fail "revoke should report the record");
  Alcotest.(check bool) "now invalid" false (Cr.is_valid record);
  Alcotest.(check bool) "second revoke is None" true
    (Cr.revoke store (Ident.make "cert" 1) ~at:6.0 ~reason:"again" = None);
  Alcotest.(check bool) "unknown revoke is None" true
    (Cr.revoke store (Ident.make "cert" 99) ~at:6.0 ~reason:"none" = None)

let test_cr_duplicate_raises () =
  let store = Cr.create_store () in
  ignore (add_record store 1);
  Alcotest.(check bool) "duplicate raises" true
    (match add_record store 1 with _ -> false | exception Invalid_argument _ -> true)

let test_cr_counts () =
  let store = Cr.create_store () in
  ignore (add_record store 1);
  ignore (add_record store 2);
  ignore (Cr.revoke store (Ident.make "cert" 1) ~at:1.0 ~reason:"r");
  Alcotest.(check int) "count" 2 (Cr.count store);
  let valid = ref 0 in
  Cr.iter store (fun r -> if Cr.is_valid r then incr valid);
  Alcotest.(check int) "valid" 1 !valid

(* ---------------- Validation cache ---------------- *)

let verdict_testable =
  Alcotest.testable
    (fun ppf -> function
      | Some Vcache.Valid -> Format.pp_print_string ppf "Some Valid"
      | Some Vcache.Invalid -> Format.pp_print_string ppf "Some Invalid"
      | None -> Format.pp_print_string ppf "None")
    ( = )

(* A presentation of certificate [n]: an RMC shown under [key]. *)
let shown ?(key = "session-key") ?(args = []) n =
  Vcache.Rmc
    ( Rmc.issue ~secret ~principal_key:key ~id:(Ident.make "cert" n) ~issuer ~role:"doctor" ~args
        ~issued_at:1.0,
      key )

let test_cache () =
  let obs = Obs.create () in
  let cache = Vcache.create ~obs () in
  let id1 = Ident.make "cert" 1 in
  Alcotest.(check verdict_testable) "miss" None (Vcache.lookup cache (shown 1));
  Vcache.cache_valid cache (shown 1);
  Alcotest.(check verdict_testable) "hit" (Some Vcache.Valid) (Vcache.lookup cache (shown 1));
  Vcache.invalidate cache id1;
  (* Invalidation leaves a cached negative verdict, not a hole: the next
     presentation is refused locally instead of re-issuing the callback. *)
  Alcotest.(check verdict_testable) "negative after invalidate" (Some Vcache.Invalid)
    (Vcache.lookup cache (shown 1));
  Vcache.invalidate cache id1;
  let count key = Fixtures.metric obs key in
  Alcotest.(check int) "hits" 1 (count "vcache.hits");
  Alcotest.(check int) "negative hits" 1 (count "vcache.negative_hits");
  Alcotest.(check int) "misses" 1 (count "vcache.misses");
  Alcotest.(check int) "invalidations idempotent" 1 (count "vcache.invalidations");
  (* The positive entry became the negative one. *)
  Alcotest.(check verdict_testable) "still negative" (Some Vcache.Invalid)
    (Vcache.lookup cache (shown 1))

(* A positive verdict answers the presentation it was given for: the same
   certificate under another session key, or a copy with its signature
   and other fields or [-0.0] for [0.0], is a miss. *)
let test_cache_keyed_by_presentation () =
  let obs = Obs.create () in
  let cache = Vcache.create ~obs () in
  Vcache.cache_valid cache (shown ~args:[ Value.Time 0.0 ] 1);
  Alcotest.(check verdict_testable) "same presentation" (Some Vcache.Valid)
    (Vcache.lookup cache (shown ~args:[ Value.Time 0.0 ] 1));
  let rmc =
    match shown ~args:[ Value.Time 0.0 ] 1 with
    | Vcache.Rmc (rmc, _) -> rmc
    | Vcache.Appointment _ -> assert false
  in
  let copy args = Vcache.Rmc (Rmc.with_args rmc args, "session-key") in
  Alcotest.(check verdict_testable) "another session key" None
    (Vcache.lookup cache (Vcache.Rmc (rmc, "thief-key")));
  Alcotest.(check verdict_testable) "other fields" None
    (Vcache.lookup cache (copy [ Value.Time 1.0 ]));
  Alcotest.(check verdict_testable) "negative zero" None
    (Vcache.lookup cache (copy [ Value.Time (-0.0) ]));
  Alcotest.(check int) "three misses" 3 (Fixtures.metric obs "vcache.misses")

(* [clear] empties the table; the counters are monotone and keep counting. *)
let test_cache_clear_and_reset () =
  let obs = Obs.create () in
  let cache = Vcache.create ~obs () in
  Vcache.cache_valid cache (shown 1);
  Alcotest.(check verdict_testable) "cached" (Some Vcache.Valid) (Vcache.lookup cache (shown 1));
  Vcache.clear cache;
  Alcotest.(check verdict_testable) "cleared" None (Vcache.lookup cache (shown 1));
  Alcotest.(check int) "hits survive clear" 1 (Fixtures.metric obs "vcache.hits");
  Alcotest.(check int) "misses" 1 (Fixtures.metric obs "vcache.misses")

(* ---------------- Wire encoding ---------------- *)

let test_wire_domain_separation () =
  let fields = [ Wire.Fstring "x" ] in
  Alcotest.(check bool) "tags separate kinds" false
    (String.equal (Wire.encode "rmc" fields) (Wire.encode "appt" fields))

let test_wire_field_boundaries () =
  (* ["ab"],["c"] vs ["a"],["bc"] must encode differently. *)
  let e1 = Wire.encode "t" [ Wire.Fstring "ab"; Wire.Fstring "c" ] in
  let e2 = Wire.encode "t" [ Wire.Fstring "a"; Wire.Fstring "bc" ] in
  Alcotest.(check bool) "length prefixes separate" false (String.equal e1 e2)

let suite =
  ( "cert",
    [
      Alcotest.test_case "rmc verify" `Quick test_rmc_verify;
      Alcotest.test_case "rmc tamper" `Quick test_rmc_tamper_args;
      Alcotest.test_case "rmc forgery" `Quick test_rmc_forgery_without_secret;
      Alcotest.test_case "rmc theft" `Quick test_rmc_theft;
      Alcotest.test_case "rmc hidden principal key" `Quick test_rmc_principal_key_not_carried;
      Alcotest.test_case "rmc size" `Quick test_rmc_size_grows_with_params;
      Alcotest.test_case "appt verify" `Quick test_appt_verify;
      Alcotest.test_case "appt theft" `Quick test_appt_theft_rebind;
      Alcotest.test_case "appt tamper" `Quick test_appt_tamper_args;
      Alcotest.test_case "appt expiry" `Quick test_appt_expiry;
      Alcotest.test_case "appt epoch rotation" `Quick test_appt_epoch_rotation;
      Alcotest.test_case "appt epoch secrets" `Quick test_appt_epoch_secrets_differ;
      Alcotest.test_case "secret rotation" `Quick test_secret_rotate_deterministic;
      Alcotest.test_case "secret generation" `Quick test_secret_generate_distinct;
      Alcotest.test_case "cr lifecycle" `Quick test_cr_lifecycle;
      Alcotest.test_case "cr duplicate" `Quick test_cr_duplicate_raises;
      Alcotest.test_case "cr counts" `Quick test_cr_counts;
      Alcotest.test_case "validation cache" `Quick test_cache;
      Alcotest.test_case "cache keyed by presentation" `Quick test_cache_keyed_by_presentation;
      Alcotest.test_case "cache clear/reset" `Quick test_cache_clear_and_reset;
      Alcotest.test_case "wire domain separation" `Quick test_wire_domain_separation;
      Alcotest.test_case "wire boundaries" `Quick test_wire_field_boundaries;
    ] )
