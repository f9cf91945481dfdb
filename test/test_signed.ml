(* Offline-verifiable signed credentials (DESIGN.md §12): the Schnorr
   layer, signature packing, the issuer key hierarchy, and the zero-RPC
   validation path end to end. *)

module World = Oasis_core.World
module Service = Oasis_core.Service
module Principal = Oasis_core.Principal
module Protocol = Oasis_core.Protocol
module Civ = Oasis_domain.Civ
module Signed = Oasis_cert.Signed
module Vcache = Oasis_cert.Validation_cache
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
module Solve = Oasis_policy.Solve
module Parser = Oasis_policy.Parser
module Env = Oasis_policy.Env
module Dlog = Oasis_trust.Decision_log

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

(* The double-and-add scalar product [Schnorr.mulmod] replaced: slow and
   obviously correct, every partial sum below 2n < 2^62. *)
let ref_mulmod a b =
  let n = Int64.to_int Modp.p - 1 in
  let addm x y = if x + y >= n then x + y - n else x + y in
  let acc = ref 0 and a = ref (a mod n) and b = ref (b mod n) in
  while !b > 0 do
    if !b land 1 = 1 then acc := addm !acc !a;
    a := addm !a !a;
    b := !b lsr 1
  done;
  !acc

let test_mulmod_matches_reference () =
  let n = Int64.to_int Modp.p - 1 in
  let edges = [ 0; 1; 2; 0x7FFFFFFF; 0x80000000; n - 1; n; n + 1; (1 lsl 61) - 1 ] in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          Alcotest.(check int) (Printf.sprintf "%d * %d" a b) (ref_mulmod a b) (Schnorr.mulmod a b))
        edges)
    edges;
  let scalar =
    QCheck.make ~print:string_of_int
      QCheck.Gen.(frequency [ (4, map (fun x -> x land ((1 lsl 61) - 1)) int); (1, oneofl edges) ])
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:2000 ~name:"mulmod = double-and-add" (QCheck.pair scalar scalar)
       (fun (a, b) -> Schnorr.mulmod a b = ref_mulmod a b))

(* Verification written out from the primitives: the range and key
   checks, r' = g^s y^e by square-and-multiply, and the challenge
   H("oasis-schnorr\x00" || r' || msg) read as Schnorr defines it. *)
let reference_verify ~public msg { Schnorr.e; s } =
  let n = Int64.sub Modp.p 1L in
  e >= 0L && e < n && s >= 0L && s < n
  && Elgamal.valid_public public
  &&
  let r' = Modp.mul (Modp.pow 3L s) (Modp.pow public e) in
  let r_bytes = Bytes.create 8 in
  Bytes.set_int64_be r_bytes 0 r';
  let d =
    Sha256.to_raw_string
      (Sha256.digest_string ("oasis-schnorr\x00" ^ Bytes.to_string r_bytes ^ msg))
  in
  Int64.equal e (Int64.rem (Int64.logand (String.get_int64_be d 0) Int64.max_int) n)

(* Valid, tampered (a bit of e or s, a byte of the message) and wrong-key
   signatures: the key-table verifier, the square-and-multiply verifier
   and the reference agree on every one. *)
let test_key_table_matches_reference () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:200 ~name:"verify_key = verify = reference"
       QCheck.(triple small_nat (string_of_size Gen.(int_range 1 120)) (int_bound 62))
       (fun (seed, msg, bit) ->
         let rng = Rng.create (seed + 1) in
         let kp = Schnorr.generate rng and other = Schnorr.generate rng in
         let sg = Schnorr.sign ~secret:kp.Schnorr.secret rng msg in
         let flip x = Int64.logxor x (Int64.shift_left 1L bit) in
         let tampered_msg =
           String.mapi (fun i c -> if i = bit mod String.length msg then Char.chr (Char.code c lxor 1) else c) msg
         in
         let agree public msg sg =
           let expected = reference_verify ~public msg sg in
           Bool.equal (Schnorr.verify_key (Schnorr.key public) msg sg) expected
           && Bool.equal (Schnorr.verify ~public msg sg) expected
         in
         reference_verify ~public:kp.Schnorr.public msg sg
         && agree kp.Schnorr.public msg sg
         && agree kp.Schnorr.public msg { sg with Schnorr.e = flip sg.Schnorr.e }
         && agree kp.Schnorr.public msg { sg with Schnorr.s = flip sg.Schnorr.s }
         && agree kp.Schnorr.public tampered_msg sg
         && agree other.Schnorr.public msg sg))

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
    match Fixtures.rmc_of_string (Fixtures.rmc_to_string rmc) with
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
    match Fixtures.appointment_of_string (Fixtures.appointment_to_string appt) with
    | Ok d -> d
    | Error _ -> Alcotest.fail "signed appointment did not decode"
  in
  Alcotest.(check bool) "verifies before expiry" true
    (Signed.verify_appointment ~address ~chain ~now:5.0 decoded);
  Alcotest.(check bool) "expired rejected" false
    (Signed.verify_appointment ~address ~chain ~now:11.0 decoded);
  (* Every byte of the protected fields is covered: flip each one and the
     certificate must either stop decoding or stop verifying. *)
  let bytes = Fixtures.appointment_to_string appt in
  for i = 0 to String.length bytes - 1 do
    let mutated = Bytes.of_string bytes in
    Bytes.set mutated i (Char.chr (Char.code bytes.[i] lxor 1));
    match Fixtures.appointment_of_string (Bytes.to_string mutated) with
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

(* Runs [f] in a fresh session of [p] and returns its result. *)
let in_session world p f =
  let result = ref None in
  World.run_proc world (fun () -> result := Some (f (Principal.start_session p)));
  World.settle world;
  match !result with Some r -> r | None -> Alcotest.fail "session never ran"

(* One presentation of the issuer's RMC at the relying service. *)
let present_base world p issuer relying =
  in_session world p (fun s ->
      ignore (ok (Principal.activate p s issuer ~role:"base" ()));
      Principal.activate p s relying ~role:"derived" ())

let activate_derived world issuer relying =
  ignore (ok (present_base world (Principal.create world ~name:"p") issuer relying))

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
    (List.length (Fixtures.active_named relying "derived"))

(* A CIV-issued badge gates a role at [club]; the badge is checked offline
   against the CIV cluster's chain. *)
let badge_world ~seed =
  let world = World.create ~seed () in
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
  (world, civ, club, p, badge)

let join world p club = in_session world p (fun s -> Principal.activate p s club ~role:"member" ())

let test_revoked_represented_denied_offline () =
  (* A revocation witnessed over the dependency watch poisons the cache;
     re-presenting the dead certificate is refused locally, still with zero
     callbacks. *)
  let world, civ, club, p, badge = badge_world ~seed:31 in
  ignore (ok (join world p club));
  ignore (Civ.revoke civ badge.Appointment.id ~reason:"lapsed");
  World.settle world;
  Alcotest.(check int) "watch collapsed the role" 0
    (List.length (Fixtures.active_named club "member"));
  (match join world p club with
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

(* ---------------- The verified-chain memo ---------------- *)

(* The definition the memo must agree with, written from the primitives:
   the root signs the key certificate's canonical encoding, [ksig]
   excluded. *)
let reference_verify_chain ~address (c : Signed.chain) =
  let module Wire = Oasis_cert.Wire in
  let kc = c.cert in
  let signed_bytes =
    Wire.encode "keycert"
      [
        Wire.Fident kc.subject;
        Wire.Fstring (Elgamal.public_to_string kc.subject_pk);
        Wire.Fint kc.key_epoch;
        Wire.Ffloat kc.issued_at;
      ]
  in
  String.equal address
    (Sha256.to_hex (Sha256.digest_string ("oasis-root\x00" ^ Elgamal.public_to_string c.root_pk)))
  && Schnorr.verify ~public:c.root_pk signed_bytes kc.ksig

let test_withdrawn_chain_goes_by_callback () =
  let world = World.create ~seed:41 () in
  let issuer = Service.create world ~name:"issuer" ~policy:"initial base <- env:eq(1, 1);" () in
  let relying = Service.create world ~name:"relying" ~policy:"derived <- *base@issuer;" () in
  let p = Principal.create world ~name:"p" in
  let auth = World.authority world in
  let stale = Option.get (Signed.chain_for auth (Service.id issuer)) in
  ignore (ok (present_base world p issuer relying));
  let warm = Service.stats relying in
  Alcotest.(check int) "warmed offline" 1 warm.Service.offline_validations;
  Alcotest.(check bool) "the stale value would still verify" true
    (Signed.verify_chain ~address:(Signed.address auth) stale);
  Signed.revoke_chain auth (Service.id issuer);
  ignore (ok (present_base world p issuer relying));
  let after = Service.stats relying in
  Alcotest.(check int) "no offline check after withdrawal" warm.Service.offline_validations
    after.Service.offline_validations;
  Alcotest.(check bool) "validated by callback" true
    (after.Service.callbacks_out > warm.Service.callbacks_out)

let test_rotation_refuses_old_epoch_next () =
  let world, civ, club, p, badge = badge_world ~seed:43 in
  ignore (ok (join world p club));
  let warm = Service.stats club in
  Alcotest.(check int) "warmed offline" 1 warm.Service.offline_validations;
  Civ.rotate_secret civ;
  (match join world p club with
  | Error Protocol.No_proof -> ()
  | Ok _ -> Alcotest.fail "old-epoch badge accepted after rotation"
  | Error d -> Alcotest.failf "unexpected denial: %s" (Protocol.denial_to_string d));
  let after = Service.stats club in
  Alcotest.(check int) "refused offline, by the new chain" (warm.Service.offline_validations + 1)
    after.Service.offline_validations;
  Alcotest.(check int) "no callbacks" 0 after.Service.callbacks_out;
  Alcotest.(check bool) "the record itself is still valid" true
    (Civ.is_valid civ badge.Appointment.id)

let test_tampered_chain_copies_refused () =
  let world, _civ, club, p, badge = badge_world ~seed:47 in
  ignore (ok (join world p club));
  let auth = World.authority world in
  let address = Signed.address auth in
  let now = World.now world in
  let chain = Option.get (Signed.chain_for auth badge.Appointment.issuer) in
  Alcotest.(check bool) "genuine badge verifies on the warm chain" true
    (Signed.verify_appointment ~address ~chain ~now badge);
  (* A forger substitutes its own key into a copy of the warm chain; the
     copy shares the memo cell but not the key certificate. *)
  let forger = Schnorr.generate (Rng.create 3) in
  let forged =
    Signed.issue_appointment ~keypair:forger ~rng:(Rng.create 4) ~epoch:chain.cert.key_epoch
      ~id:(Ident.make "cert" 999) ~issuer:badge.Appointment.issuer ~kind:"badge"
      ~args:badge.Appointment.args ~holder:badge.Appointment.holder ~issued_at:now ()
  in
  let new_cert = { chain with cert = { chain.cert with subject_pk = forger.Schnorr.public } } in
  Alcotest.(check bool) "copy with a new cert refused" false
    (Signed.verify_chain ~address new_cert);
  Alcotest.(check bool) "forged badge refused under it" false
    (Signed.verify_appointment ~address ~chain:new_cert ~now forged);
  (* A rogue root certifies the forger's key; neither its root key alone
     nor its whole chain, grafted onto the warm memo, passes. *)
  let rogue = Signed.create_authority (Rng.create 5) in
  let rogue_chain =
    Signed.enrol rogue ~subject:badge.Appointment.issuer ~subject_pk:forger.Schnorr.public
      ~key_epoch:chain.cert.key_epoch ~now
  in
  let new_root = { chain with root_pk = rogue_chain.root_pk } in
  Alcotest.(check bool) "copy with a new root_pk refused" false
    (Signed.verify_chain ~address new_root);
  let grafted = { chain with root_pk = rogue_chain.root_pk; cert = rogue_chain.cert } in
  Alcotest.(check bool) "rogue chain grafted onto the memo refused" false
    (Signed.verify_appointment ~address ~chain:grafted ~now forged);
  Alcotest.(check bool) "the warm chain still verifies" true (Signed.verify_chain ~address chain);
  Alcotest.(check bool) "and still refuses the forgery" false
    (Signed.verify_appointment ~address ~chain ~now forged);
  Alcotest.(check int) "no callbacks" 0 (Service.stats club).Service.callbacks_out

(* A key rotated without an epoch change: only the key tells the chains
   apart. Each chain's table is built for its own key, so a certificate
   signed under the other key fails, also on a copy of the warm old chain
   carrying the new key certificate, which shares the old chain's memo. *)
let test_rotated_key_gets_own_table () =
  let auth = Signed.create_authority (Rng.create 17) in
  let address = Signed.address auth and subject = Ident.make "service" 3 in
  let issue keypair id =
    Signed.issue_appointment ~keypair ~rng:(Signed.rng auth) ~epoch:1 ~id:(Ident.make "cert" id)
      ~issuer:subject ~kind:"badge" ~args:[] ~holder:"pk-holder" ~issued_at:0.0 ()
  in
  let old_kp = Signed.generate_keypair auth in
  let old_chain =
    Signed.enrol auth ~subject ~subject_pk:old_kp.Schnorr.public ~key_epoch:1 ~now:0.0
  in
  let old_cert = issue old_kp 1 in
  let accepts chain appt = Signed.verify_appointment ~address ~chain ~now:1.0 appt in
  Alcotest.(check bool) "old key's certificate, old chain (table built)" true
    (accepts old_chain old_cert);
  let new_kp = Signed.generate_keypair auth in
  let new_chain =
    Signed.enrol auth ~subject ~subject_pk:new_kp.Schnorr.public ~key_epoch:1 ~now:1.0
  in
  let new_cert = issue new_kp 2 in
  let copy = { old_chain with Signed.cert = new_chain.Signed.cert } in
  List.iter
    (fun (name, chain, appt, expected) ->
      Alcotest.(check bool) name expected (accepts chain appt))
    [
      ("new chain accepts the new key's certificate", new_chain, new_cert, true);
      ("new chain refuses the old key's certificate", new_chain, old_cert, false);
      ("old memo's copy accepts the new key's certificate", copy, new_cert, true);
      ("old memo's copy refuses the old key's certificate", copy, old_cert, false);
      ("old chain again: its own key only", old_chain, old_cert, true);
      ("old chain refuses the new key's certificate", old_chain, new_cert, false);
    ]

(* Random schedules over two authorities and two subjects: every chain
   value ever handed out stays in the pool, and copies sharing a memo cell
   are mixed in, so stale, withdrawn and tampered values are all checked
   again after other values warmed. *)
type chain_op =
  | Enrol of int * int
  | Rotate of int * int
  | Withdraw of int * int
  | Tamper of int * int * int
  | Verify of int * int

let chain_op_gen =
  QCheck.Gen.(
    let two = int_bound 1 and any = int_bound 1_000 in
    frequency
      [
        (2, map2 (fun a s -> Enrol (a, s)) two two);
        (2, map2 (fun a s -> Rotate (a, s)) two two);
        (1, map2 (fun a s -> Withdraw (a, s)) two two);
        (3, map3 (fun i j k -> Tamper (i, j, k)) any any (int_bound 5));
        (6, map2 (fun i a -> Verify (i, a)) any two);
      ])

let test_memo_matches_definition () =
  let verdicts = [| 0; 0 |] in
  let run ops =
    let auths = Array.init 2 (fun i -> Signed.create_authority (Rng.create (71 + i))) in
    let addresses = Array.map Signed.address auths in
    let subjects = Array.init 2 (fun i -> Ident.make "service" i) in
    let keys = Array.map (fun a -> Array.init 2 (fun _ -> Signed.generate_keypair a)) auths in
    let epochs = Array.make_matrix 2 2 0 in
    let pool = ref [||] in
    let add c = pool := Array.append !pool [| c |] in
    let enrol a s =
      add
        (Signed.enrol auths.(a) ~subject:subjects.(s) ~subject_pk:keys.(a).(s).Schnorr.public
           ~key_epoch:epochs.(a).(s) ~now:0.0)
    in
    let agrees i addr =
      let c = !pool.(i mod Array.length !pool) in
      let address = addresses.(addr) in
      let got = Signed.verify_chain ~address c in
      let b = if got then 1 else 0 in
      verdicts.(b) <- verdicts.(b) + 1;
      got = reference_verify_chain ~address c
    in
    enrol 0 0;
    List.for_all
      (fun op ->
        match op with
        | Enrol (a, s) ->
            enrol a s;
            true
        | Rotate (a, s) ->
            epochs.(a).(s) <- epochs.(a).(s) + 1;
            enrol a s;
            true
        | Withdraw (a, s) ->
            Signed.revoke_chain auths.(a) subjects.(s);
            Signed.chain_for auths.(a) subjects.(s) = None
        | Tamper (i, j, k) ->
            let n = Array.length !pool in
            let c = !pool.(i mod n) and o = !pool.(j mod n) in
            add
              (match k with
              | 0 -> { c with cert = { c.cert with key_epoch = c.cert.key_epoch + 1 } }
              | 1 -> { c with cert = { c.cert with subject_pk = o.cert.subject_pk } }
              | 2 -> { c with cert = o.cert }
              | 3 -> { c with root_pk = o.root_pk }
              | 4 -> { c with root_pk = o.root_pk; cert = o.cert }
              | _ -> { c with cert = c.cert });
            true
        (* The second check answers from the memo when the first passed. *)
        | Verify (i, addr) -> agrees i addr && agrees i addr)
      ops
    && List.for_all
         (fun (a, s) ->
           match Signed.chain_for auths.(a) subjects.(s) with
           | Some c ->
               Array.for_all
                 (fun address ->
                   Signed.verify_chain ~address c = reference_verify_chain ~address c)
                 addresses
           | None -> true)
         [ (0, 0); (0, 1); (1, 0); (1, 1) ]
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:200 ~name:"memoized verify_chain = definition"
       QCheck.(make Gen.(list_size (int_range 1 40) chain_op_gen))
       run);
  Alcotest.(check bool) "schedules reach both verdicts" true (verdicts.(0) > 0 && verdicts.(1) > 0)

(* ---------------- The signature memo (Validation_cache) ---------------- *)

(* One issuer's certificates as a relying service sees them. A
   presentation shows a certificate as issued, or a copy with its id that
   differs in one signed field, the signature, the session key or the
   issuer. The issuer re-enrols under a fresh key (a new key certificate)
   or the next epoch, or withdraws its chain; the clock passes expiries;
   the relying service crashes (its cache cleared) or learns of a
   revocation (the entry invalidated). *)
type memo_op =
  | Issue_rmc of int * int * int
  | Issue_appt of int * int * int
  | Present of int
  | Copy of int * int
  | Reenrol
  | Next_epoch
  | Withdraw
  | Advance of int
  | Clear
  | Invalidate of int

let memo_op_gen =
  QCheck.Gen.(
    let small = int_bound 3 and any = int_bound 1_000 in
    frequency
      [
        (3, map3 (fun a t k -> Issue_rmc (a, t, k)) small small small);
        (3, map3 (fun a t e -> Issue_appt (a, t, e)) small small small);
        (6, map (fun i -> Present i) any);
        (6, map2 (fun i k -> Copy (i, k)) any (int_bound 7));
        (1, return Reenrol);
        (1, return Next_epoch);
        (1, return Withdraw);
        (2, map (fun d -> Advance d) small);
        (1, return Clear);
        (1, map (fun i -> Invalidate i) any);
      ])

(* A copy of a certificate with its id and one signed field changed, or
   its signature. Negating the times turns a [0.0] into [-0.0], which only
   the sign bit tells apart. *)
let negate_times args =
  if List.exists (function Value.Time _ -> true | _ -> false) args then
    List.map (function Value.Time f -> Value.Time (-.f) | v -> v) args
  else args @ [ Value.Int 0 ]

let rmc_copy k (r : Rmc.t) =
  let parts ?(role = r.role) ?(args = r.args) ?(issued_at = r.issued_at)
      ?(signature = r.signature) ?(issuer = r.issuer) () =
    Rmc.of_parts ~id:r.id ~issuer ~role ~args ~issued_at ~signature
  in
  match k mod 5 with
  | 0 -> parts ~role:(if r.role = "a" then "b" else "a") ()
  | 1 -> parts ~args:(negate_times r.args) ()
  | 2 -> parts ~issued_at:(-.r.issued_at) ()
  | 3 -> parts ~signature:(Sha256.digest_string r.role) ()
  | _ -> parts ~issuer:(Ident.make "elsewhere" 1) ()

let appt_copy k (a : Appointment.t) =
  let parts ?(kind = a.kind) ?(args = a.args) ?(holder = a.holder) ?(issued_at = a.issued_at)
      ?(expires_at = a.expires_at) ?(epoch = a.epoch) ?(signature = a.signature) () =
    Appointment.of_parts ~id:a.id ~issuer:a.issuer ~kind ~args ~holder ~issued_at ~expires_at
      ~epoch ~signature
  in
  match k mod 7 with
  | 0 -> parts ~kind:(if a.kind = "a" then "b" else "a") ()
  | 1 -> parts ~args:(negate_times a.args) ()
  | 2 -> parts ~issued_at:(-.a.issued_at) ()
  | 3 -> parts ~signature:(Sha256.digest_string a.kind) ()
  | 4 -> parts ~holder:(a.holder ^ "'") ()
  | 5 ->
      parts ~expires_at:(match a.expires_at with Some e -> Some (e +. 1.0) | None -> Some 1e9) ()
  | _ -> parts ~epoch:(a.epoch + 1) ()

(* Arguments and times with a zero among them. *)
let memo_args =
  [|
    [];
    [ Value.Time 0.0 ];
    [ Value.Int 1; Value.Time 2.5 ];
    [ Value.Id (Ident.make "principal" 3); Value.Time 0.0 ];
  |]

let test_signature_memo_matches_checking_everything () =
  let verdicts = [| 0; 0 |] and served = ref 0 in
  let run ops =
    let auth = Signed.create_authority (Rng.create 91) in
    let address = Signed.address auth in
    let rng = Rng.create 92 in
    let subject = Ident.make "service" 1 in
    let keypair = ref (Signed.generate_keypair auth) and epoch = ref 0 and now = ref 1.0 in
    let enrol () =
      ignore
        (Signed.enrol auth ~subject ~subject_pk:!keypair.Schnorr.public ~key_epoch:!epoch
           ~now:!now)
    in
    enrol ();
    let cache = Vcache.create () in
    let pool = ref [||] and next_id = ref 0 in
    let add p = pool := Array.append !pool [| p |] in
    let fresh_id () =
      incr next_id;
      Ident.make "cert" !next_id
    in
    let keys = [| "key-a"; "key-b"; "key-c"; "key-d" |] in
    let times () = [| 0.0; 1.5; !now; 0.0 |] in
    (* The memo's verdict against the full check, for one presentation
       while the issuer has a chain; a withdrawn issuer is checked by
       callback, which this layer does not see. *)
    let verdict p =
      match Signed.chain_for auth subject with
      | None -> None
      | Some chain ->
          let got = Vcache.verify cache ~address ~chain ~now:!now p in
          let want =
            match p with
            | Vcache.Rmc (rmc, principal_key) ->
                Signed.verify_rmc ~address ~chain ~principal_key rmc
            | Vcache.Appointment appt -> Signed.verify_appointment ~address ~chain ~now:!now appt
          in
          let b = if got then 1 else 0 in
          verdicts.(b) <- verdicts.(b) + 1;
          Some (got, want)
    in
    (* Presented twice: the second answers from the memo when the first
       passed. *)
    let agrees p =
      match verdict p with
      | None -> true
      | Some (got, want) -> (
          got = want
          &&
          match verdict p with
          | Some (again, want) ->
              if got then incr served;
              again = want
          | None -> false)
    in
    let pick i = !pool.(i mod Array.length !pool) in
    let copy p k =
      match p with
      | Vcache.Rmc (rmc, key) when k mod 6 = 5 -> Vcache.Rmc (rmc, key ^ "'")
      | Vcache.Rmc (rmc, key) -> Vcache.Rmc (rmc_copy k rmc, key)
      | Vcache.Appointment appt -> Vcache.Appointment (appt_copy k appt)
    in
    List.for_all
      (fun op ->
        match op with
        | Issue_rmc (a, t, k) ->
            let principal_key = keys.(k) in
            add
              (Vcache.Rmc
                 ( Signed.issue_rmc ~keypair:!keypair ~rng ~principal_key ~id:(fresh_id ())
                     ~issuer:subject ~role:"doctor" ~args:memo_args.(a) ~issued_at:(times ()).(t),
                   principal_key ));
            true
        | Issue_appt (a, t, e) ->
            let expires_at = [| None; Some (!now +. 1.0); Some (!now +. 5.0); None |].(e) in
            add
              (Vcache.Appointment
                 (Signed.issue_appointment ~keypair:!keypair ~rng ~epoch:!epoch ~id:(fresh_id ())
                    ~issuer:subject ~kind:"qualified" ~args:memo_args.(a) ~holder:"holder"
                    ~issued_at:(times ()).(t) ?expires_at ()));
            true
        | Present i -> Array.length !pool = 0 || agrees (pick i)
        | Copy (i, k) ->
            Array.length !pool = 0
            || (* A presentation as issued first, so the copy meets a warm memo. *)
            (agrees (pick i) && agrees (copy (pick i) k))
        | Reenrol ->
            keypair := Signed.generate_keypair auth;
            enrol ();
            true
        | Next_epoch ->
            incr epoch;
            enrol ();
            true
        | Withdraw ->
            Signed.revoke_chain auth subject;
            true
        | Advance d ->
            now := !now +. [| 0.5; 2.0; 10.0; 0.0 |].(d);
            true
        | Clear ->
            Vcache.clear cache;
            true
        | Invalidate i ->
            if Array.length !pool > 0 then Vcache.invalidate cache (Vcache.presented_id (pick i));
            true)
      ops
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:300 ~name:"signature memo = checking every signature"
       QCheck.(make Gen.(list_size (int_range 1 60) memo_op_gen))
       run);
  Alcotest.(check bool) "schedules reach both verdicts" true (verdicts.(0) > 0 && verdicts.(1) > 0);
  Alcotest.(check bool) "the memo serves re-presentations" true (!served > 0)

(* ---------------- Which presented credentials are checked ---------------- *)

(* Who issued a presented credential: the deciding service itself, a
   service with a key chain, an HMAC-signing service (checked by callback),
   or a CIV with or without a chain (appointments). *)
type source = Own | Chained | Hmac | Civ_chained | Civ_hmac

(* Stale: an appointment signed under the key (or epoch) that a rotation
   has since replaced. RMCs neither expire nor go stale. *)
type status = Valid | Tampered | Revoked | Expired | Stale

let is_appointment = function Civ_chained | Civ_hmac -> true | Own | Chained | Hmac -> false

let ref_text (source, name) =
  match source with
  | Own -> name
  | Chained -> name ^ "@chained"
  | Hmac -> name ^ "@hmac"
  | Civ_chained -> "appt:" ^ name ^ "@civ"
  | Civ_hmac -> "appt:" ^ name ^ "@hciv"

let other_name = function "a" -> "b" | _ -> "a"

type presented = Presented_rmc of Rmc.t | Presented_appt of Appointment.t

type presentation = {
  world : World.t;
  svc : Service.t;
  goal_rules : string;
  request : unit -> (Rmc.t, Protocol.denial) result;  (** presents [wallet] *)
  present :
    ?stolen:bool -> (status * presented) list -> (Rmc.t, Protocol.denial) result;
      (** presents a wallet from the principal's session, or with [stolen]
          from another session of it, whose key no RMC is bound to *)
  wallet : (status * presented) list;  (** in presentation order *)
}

(* A world where [svc] holds one [goal] rule per element of [rules] (each a
   list of references), and a principal's session holds the credentials
   [specs] describes, presented to [svc] in that order by [request]. *)
let presentation ~seed ~rules specs =
  let world = World.create ~seed () in
  let roles = "initial a <- env:eq(1, 1); initial b <- env:eq(1, 1); " in
  let goal_rules =
    String.concat " "
      (List.map (fun refs -> "goal <- " ^ String.concat ", " (List.map ref_text refs) ^ ";") rules)
  in
  let svc = Service.create world ~name:"svc" ~policy:(roles ^ goal_rules) () in
  let chained = Service.create world ~name:"chained" ~policy:roles () in
  let hmac = Service.create world ~name:"hmac" ~config:(signing false) ~policy:roles () in
  let civ = Civ.create world ~name:"civ" () in
  let hciv = Civ.create world ~name:"hciv" ~offline_sign:false () in
  let p = Principal.create world ~name:"p" in
  let session = Principal.start_session p in
  let issuer = function Own -> svc | Chained -> chained | _ -> hmac in
  let civ_of = function Civ_chained -> civ | _ -> hciv in
  let rmc source name =
    World.run_proc world (fun () ->
        ok
          (Principal.activate_with p session (issuer source) ~role:name
             ~creds:Protocol.no_credentials ()))
  in
  let appt ?expires_at source name =
    Civ.issue (civ_of source) ~kind:name ~args:[] ~holder:(Principal.id p)
      ~holder_key:(Principal.longterm_public p) ?expires_at ()
  in
  let make (source, name, status) =
    if is_appointment source then
      Presented_appt
        (match status with
        | Valid | Stale -> appt source name
        | Tampered ->
            let (a : Appointment.t) = appt source (other_name name) in
            Appointment.of_parts ~id:a.id ~issuer:a.issuer ~kind:name ~args:a.args ~holder:a.holder
              ~issued_at:a.issued_at ~expires_at:a.expires_at ~epoch:a.epoch ~signature:a.signature
        | Revoked ->
            let a = appt source name in
            ignore (Civ.revoke (civ_of source) a.Appointment.id ~reason:"revoked");
            a
        | Expired -> appt ~expires_at:(World.now world +. 1.0) source name)
    else
      Presented_rmc
        (match status with
        | Valid -> rmc source name
        | Tampered ->
            let (r : Rmc.t) = rmc source (other_name name) in
            Rmc.of_parts ~id:r.id ~issuer:r.issuer ~role:name ~args:r.args ~issued_at:r.issued_at
              ~signature:r.signature
        | Revoked ->
            let r = rmc source name in
            ignore (Service.revoke_certificate (issuer source) r.Rmc.id ~reason:"revoked");
            r
        | Expired | Stale -> invalid_arg "RMCs neither expire nor go stale")
  in
  let specs = List.mapi (fun i spec -> (i, spec)) specs in
  let stale, current = List.partition (fun (_, (_, _, status)) -> status = Stale) specs in
  let issue = List.map (fun (i, ((_, _, status) as spec)) -> (i, (status, make spec))) in
  let early = issue stale in
  Civ.rotate_secret civ;
  Civ.rotate_secret hciv;
  let wallet = List.sort (fun (i, _) (j, _) -> Int.compare i j) (early @ issue current) in
  let wallet = List.map snd wallet in
  (* Past every expiry, and every revocation announced. *)
  World.run_until world (World.now world +. 2.0);
  World.settle world;
  let thief_session = Principal.start_session p in
  let present ?(stolen = false) wallet =
    let creds =
      {
        Protocol.rmcs = List.filter_map (function _, Presented_rmc r -> Some r | _ -> None) wallet;
        appointments = List.filter_map (function _, Presented_appt a -> Some a | _ -> None) wallet;
      }
    in
    let session = if stolen then thief_session else session in
    World.run_proc world (fun () -> Principal.activate_with p session svc ~role:"goal" ~creds ())
  in
  { world; svc; goal_rules; request = (fun () -> present wallet); present; wallet }

(* The credentials the last grant of [svc] rested on. *)
let last_support svc =
  match List.rev (Dlog.records (Service.decision_log svc)) with
  | { Dlog.decision = Dlog.Grant; creds = _issued :: support; _ } :: _ -> support
  | _ -> Alcotest.fail "no grant recorded"

(* The reply to one request, with what it added to the deciding service's
   offline validations, validation failures and callbacks. *)
let request_counted pr =
  let (b : Service.stats) = Service.stats pr.svc in
  let result = pr.request () in
  let (a : Service.stats) = Service.stats pr.svc in
  ( result,
    ( a.offline_validations - b.offline_validations,
      a.validation_failures - b.validation_failures,
      a.callbacks_out - b.callbacks_out ) )

let test_unnamed_local_credentials_unchecked () =
  let pr =
    presentation ~seed:53
      ~rules:[ [ (Chained, "a"); (Civ_chained, "a") ] ]
      [
        (Chained, "a", Valid);
        (Own, "b", Tampered);
        (Civ_chained, "b", Stale);
        (Civ_chained, "a", Valid);
      ]
  in
  let result, (offline, failures, callbacks) = request_counted pr in
  ignore (ok result);
  Alcotest.(check int) "only the two named credentials checked offline" 2 offline;
  Alcotest.(check int) "the unnamed invalid ones dropped unchecked" 0 failures;
  Alcotest.(check int) "no callbacks" 0 callbacks

let test_tampered_named_credential_refused () =
  let pr =
    presentation ~seed:59
      ~rules:[ [ (Chained, "a"); (Civ_chained, "a") ] ]
      [ (Chained, "a", Tampered); (Civ_chained, "a", Valid) ]
  in
  let result, (_, failures, _) = request_counted pr in
  (match result with
  | Error Protocol.No_proof -> ()
  | Ok _ -> Alcotest.fail "tampered named credential accepted"
  | Error d -> Alcotest.failf "unexpected denial: %s" (Protocol.denial_to_string d));
  Alcotest.(check int) "counted as a failure" 1 failures

let test_unnamed_callback_credential_still_checked () =
  let pr =
    presentation ~seed:61
      ~rules:[ [ (Chained, "a") ] ]
      [ (Chained, "a", Valid); (Hmac, "b", Valid) ]
  in
  let result, (offline, _, callbacks) = request_counted pr in
  ignore (ok result);
  Alcotest.(check int) "the named one offline" 1 offline;
  Alcotest.(check int) "the unnamed HMAC one by one callback" 1 callbacks

(* The proof the solver finds when every credential of [wallet] is
   checked: the candidates are exactly the credentials built valid, in
   presentation order. *)
let reference_support pr wallet =
  let resolve = function
    | None -> Some (Service.id pr.svc)
    | Some name -> World.resolve pr.world name
  in
  let candidates pick ~service ~name =
    match resolve service with
    | None -> []
    | Some issuer ->
        List.filter_map
          (fun (status, cred) ->
            match pick cred with
            | Some (c : Solve.cred)
              when status = Valid && Ident.equal c.issuer issuer && String.equal c.cred_name name ->
                Some c
            | _ -> None)
          wallet
  in
  let of_rmc = function
    | Presented_rmc (r : Rmc.t) ->
        Some { Solve.cred_id = r.id; issuer = r.issuer; cred_name = r.role; cred_args = r.args }
    | Presented_appt _ -> None
  in
  let of_appt = function
    | Presented_appt (a : Appointment.t) ->
        Some { Solve.cred_id = a.id; issuer = a.issuer; cred_name = a.kind; cred_args = a.args }
    | Presented_rmc _ -> None
  in
  let env = Service.env pr.svc in
  let ctx =
    {
      Solve.find_rmcs = (fun ~service ~name -> candidates of_rmc ~service ~name);
      find_appointments = (fun ~issuer ~name -> candidates of_appt ~service:issuer ~name);
      env_check = Env.check env;
      env_enumerate = Env.enumerate env;
    }
  in
  List.find_map
    (function Parser.Activation rule -> Solve.activation ctx rule () | _ -> None)
    (Parser.parse_exn pr.goal_rules)
  |> Option.map (fun (proof : Solve.proof) ->
         List.filter_map
           (function
             | Solve.By_rmc c | Solve.By_appointment c -> Some c.Solve.cred_id
             | Solve.By_env _ -> None)
           proof.support)

let cred_ref_gen =
  QCheck.Gen.(pair (oneofl [ Own; Chained; Hmac; Civ_chained; Civ_hmac ]) (oneofl [ "a"; "b" ]))

let spec_gen =
  QCheck.Gen.(
    cred_ref_gen >>= fun (source, name) ->
    map
      (fun status -> (source, name, status))
      (if is_appointment source then oneofl [ Valid; Valid; Tampered; Revoked; Expired; Stale ]
       else oneofl [ Valid; Valid; Tampered; Revoked ]))

(* Each wallet is presented twice, then once more with one credential
   replaced by a copy (its id, one signed field or the signature changed)
   or from another session; every decision matches checking every
   credential. *)
let test_decisions_match_checking_everything () =
  let outcomes = [| 0; 0 |] in
  let decide pr ?stolen wallet =
    match pr.present ?stolen wallet with
    | Ok _ -> Some (last_support pr.svc)
    | Error Protocol.No_proof -> None
    | Error d -> Alcotest.failf "unexpected denial: %s" (Protocol.denial_to_string d)
  in
  let same = Option.equal (List.equal Ident.equal) in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:300 ~name:"decision and support = checking every credential"
       QCheck.(
         make
           Gen.(
             pair
               (triple small_nat
                  (list_size (int_range 1 2) (list_size (int_range 1 3) cred_ref_gen))
                  (list_size (int_bound 6) spec_gen))
               (pair (int_bound 6) (int_bound 7))))
       (fun ((seed, rules, specs), (i, k)) ->
         let pr = presentation ~seed:(seed + 1) ~rules specs in
         let reference = reference_support pr pr.wallet in
         let first = decide pr pr.wallet in
         let o = if first = None then 0 else 1 in
         outcomes.(o) <- outcomes.(o) + 1;
         let second = decide pr pr.wallet in
         let copied, stolen =
           if k = 7 then
             ( List.map
                 (function
                   | _, (Presented_rmc _ as r) -> (Tampered, r)
                   | (_, Presented_appt _) as a -> a)
                 pr.wallet,
               true )
           else
             ( List.mapi
                 (fun j (status, cred) ->
                   if j <> i then (status, cred)
                   else
                     match cred with
                     | Presented_rmc r -> (Tampered, Presented_rmc (rmc_copy k r))
                     | Presented_appt a -> (Tampered, Presented_appt (appt_copy k a)))
                 pr.wallet,
               false )
         in
         same first reference && same second reference
         && same (decide pr ~stolen copied) (reference_support pr copied)));
  Alcotest.(check bool) "cases reach both grants and denials" true
    (outcomes.(0) > 0 && outcomes.(1) > 0)

let suite =
  ( "signed",
    [
      Alcotest.test_case "sign/verify (qcheck)" `Quick test_sign_verify;
      Alcotest.test_case "tampered signature" `Quick test_tampered_signature_rejected;
      Alcotest.test_case "signature packing" `Quick test_signature_packing;
      Alcotest.test_case "golden signatures" `Quick test_golden_signatures;
      Alcotest.test_case "mulmod = double-and-add (qcheck)" `Quick test_mulmod_matches_reference;
      Alcotest.test_case "key table verify = reference (qcheck)" `Quick
        test_key_table_matches_reference;
      Alcotest.test_case "strict public-key parse" `Quick test_public_of_string_strict;
      Alcotest.test_case "key chain" `Quick test_chain_verifies;
      Alcotest.test_case "signed rmc roundtrip" `Quick test_signed_rmc_roundtrip;
      Alcotest.test_case "signed appointment roundtrip" `Quick test_signed_appointment_roundtrip;
      Alcotest.test_case "offline path zero RPCs" `Quick test_offline_path_zero_rpcs;
      Alcotest.test_case "unenrolled issuer falls back" `Quick test_unenrolled_issuer_falls_back;
      Alcotest.test_case "revoked re-presentation" `Quick test_revoked_represented_denied_offline;
      Alcotest.test_case "decommission revokes chain" `Quick test_decommission_revokes_chain;
      Alcotest.test_case "withdrawn chain goes by callback" `Quick
        test_withdrawn_chain_goes_by_callback;
      Alcotest.test_case "rotation refuses old epoch next" `Quick
        test_rotation_refuses_old_epoch_next;
      Alcotest.test_case "tampered chain copies refused" `Quick test_tampered_chain_copies_refused;
      Alcotest.test_case "rotated key gets its own table" `Quick test_rotated_key_gets_own_table;
      Alcotest.test_case "chain memo = definition (qcheck)" `Quick test_memo_matches_definition;
      Alcotest.test_case "signature memo = checking every signature (qcheck)" `Quick
        test_signature_memo_matches_checking_everything;
      Alcotest.test_case "unnamed local credentials unchecked" `Quick
        test_unnamed_local_credentials_unchecked;
      Alcotest.test_case "tampered named credential refused" `Quick
        test_tampered_named_credential_refused;
      Alcotest.test_case "unnamed callback credential still checked" `Quick
        test_unnamed_callback_credential_still_checked;
      Alcotest.test_case "decisions = checking everything (qcheck)" `Quick
        test_decisions_match_checking_everything;
    ] )
