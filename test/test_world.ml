(* World, Principal and protocol-surface coverage. *)

module World = Oasis_core.World
module Service = Oasis_core.Service
module Principal = Oasis_core.Principal
module Protocol = Oasis_core.Protocol
module Durable = Oasis_core.Durable
module Civ = Oasis_domain.Civ
module Audit = Oasis_trust.Audit
module History = Oasis_trust.History
module Dlog = Oasis_trust.Decision_log
module Fault = Oasis_sim.Fault
module Obs = Oasis_obs.Obs
module Env = Oasis_policy.Env
module Value = Oasis_util.Value
module Ident = Oasis_util.Ident

let test_registry () =
  let world = World.create () in
  let svc = Service.create world ~name:"alpha" ~policy:"initial r <- env:eq(1, 1);" () in
  Alcotest.(check bool) "resolve" true (World.resolve world "alpha" = Some (Service.id svc));
  Alcotest.(check bool) "unknown" true (World.resolve world "beta" = None);
  Alcotest.(check bool) "rebinding raises" true
    (match World.register_service world ~name:"alpha" (Ident.make "x" 0) with
    | () -> false
    | exception Invalid_argument _ -> true)

(* A heartbeat period or deadline that is not positive is refused when the
   world is made, not at the first issue or watch mid-run. *)
let test_bad_heartbeat_settings () =
  let refused period deadline =
    match World.create ~monitoring:(World.Heartbeats { period; deadline }) () with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "zero deadline" true (refused 1.0 0.0);
  Alcotest.(check bool) "negative deadline" true (refused 1.0 (-2.5));
  Alcotest.(check bool) "zero period" true (refused 0.0 2.5);
  Alcotest.(check bool) "nan period" true (refused Float.nan 2.5);
  Alcotest.(check bool) "positive settings" false (refused 1.0 2.5)

let test_run_proc_detects_deadlock () =
  let world = World.create () in
  Alcotest.(check bool) "deadlock reported" true
    (match
       World.run_proc world (fun () ->
           (* Block on an ivar nobody will ever fill. *)
           Oasis_sim.Proc.read (Oasis_sim.Proc.ivar () : int Oasis_sim.Proc.ivar))
     with
    | _ -> false
    | exception Failure _ -> true)

let test_settle_leaves_future_timers () =
  let world = World.create () in
  let fired = ref false in
  ignore
    (Oasis_sim.Engine.schedule (World.engine world) ~after:100.0 (fun () -> fired := true));
  World.settle world;
  Alcotest.(check bool) "far timer untouched" false !fired;
  Alcotest.(check bool) "clock advanced ~1s" true (World.now world < 2.0);
  World.run world;
  Alcotest.(check bool) "run drains it" true !fired

let test_fresh_ids_distinct () =
  let world = World.create () in
  let a = World.fresh_cert_id world and b = World.fresh_cert_id world in
  Alcotest.(check bool) "distinct" false (Ident.equal a b);
  let p = World.fresh_principal_id world and q = World.fresh_anon_id world in
  Alcotest.(check bool) "namespaces differ" false (String.equal (Ident.tag p) (Ident.tag q))

let test_multiple_sessions_per_principal () =
  let world = World.create () in
  let svc = Service.create world ~name:"svc" ~policy:"initial r <- env:eq(1, 1);" () in
  let p = Principal.create world ~name:"p" in
  let s1 = Principal.start_session p and s2 = Principal.start_session p in
  Alcotest.(check bool) "distinct session keys" false
    (String.equal (Principal.session_key s1) (Principal.session_key s2));
  World.run_proc world (fun () ->
      (match Principal.activate p s1 svc ~role:"r" () with
      | Ok _ -> ()
      | Error d -> Alcotest.failf "s1: %s" (Protocol.denial_to_string d));
      match Principal.activate p s2 svc ~role:"r" () with
      | Ok _ -> ()
      | Error d -> Alcotest.failf "s2: %s" (Protocol.denial_to_string d));
  Alcotest.(check int) "one RMC per session" 1 (List.length (Principal.session_rmcs s1));
  (* RMCs are session-bound: s1's RMC does not verify under s2's key (the
     issuer would refuse it — see test_security for the end-to-end case). *)
  Alcotest.(check int) "two active roles for same principal" 2
    (List.length (Service.active_roles svc))

let test_policy_errors_contained () =
  (* A rule with an unbound head parameter, or an unknown predicate, is a
     configuration bug: the service must refuse with Bad_request and stay
     alive — never crash the node. The install lint gate would refuse
     these rules outright, so they are added past it to exercise the
     runtime containment path. *)
  let world = World.create () in
  let svc = Service.create world ~name:"svc" ~policy:"initial fine <- env:eq(1, 1);" () in
  Fixtures.add_unlinted svc
    {|
      initial broken_head(u) <- env:eq(1, 1);
      initial broken_env <- env:no_such_predicate(1);
      priv broken_priv(u) <- fine, env:also_missing(u);
    |};
  let p = Principal.create world ~name:"p" in
  World.run_proc world (fun () ->
      let s = Principal.start_session p in
      (match Principal.activate p s svc ~role:"broken_head" () with
      | Error (Protocol.Bad_request _) -> ()
      | _ -> Alcotest.fail "unbound head not contained");
      (match Principal.activate p s svc ~role:"broken_env" () with
      | Error (Protocol.Bad_request _) -> ()
      | _ -> Alcotest.fail "unknown predicate not contained");
      (* The service is still healthy. *)
      (match Principal.activate p s svc ~role:"fine" () with
      | Ok _ -> ()
      | Error d -> Alcotest.failf "healthy role broken: %s" (Protocol.denial_to_string d));
      match Principal.invoke p s svc ~privilege:"broken_priv" ~args:[ Value.Int 1 ] with
      | Error (Protocol.Bad_request _) -> ()
      | _ -> Alcotest.fail "privilege policy error not contained")

let test_principal_wallet_management () =
  let world = World.create () in
  let civ = Civ.create world ~name:"civ" () in
  let p = Principal.create world ~name:"p" in
  let appt =
    Civ.issue civ ~kind:"card" ~args:[] ~holder:(Principal.id p)
      ~holder_key:(Principal.longterm_public p) ()
  in
  Principal.grant_appointment p appt;
  Alcotest.(check int) "wallet" 1 (List.length (Principal.appointments p));
  Principal.drop_appointment p appt.Oasis_cert.Appointment.id;
  Alcotest.(check int) "dropped" 0 (List.length (Principal.appointments p))

let test_principal_node_rejects_non_challenge () =
  let world = World.create () in
  let p = Principal.create world ~name:"p" and q = Principal.create world ~name:"q" in
  let reply =
    World.run_proc world (fun () ->
        Oasis_sim.Network.rpc (World.network world) ~src:(Principal.id p) ~dst:(Principal.id q)
          Protocol.Deactivate_ok)
  in
  match reply with
  | Protocol.Denied (Protocol.Bad_request _) -> ()
  | _ -> Alcotest.fail "principals must refuse non-challenge requests"

let test_civ_audit_extension () =
  (* Sect. 6: the domain's CIV issues and validates audit certificates. *)
  let world = World.create () in
  let civ = Civ.create world ~name:"civ" () in
  let client = Ident.make "client" 1 and server = Ident.make "server" 1 in
  let cert =
    Civ.record_interaction civ ~client ~server ~client_outcome:Audit.Fulfilled
      ~server_outcome:Audit.Breached
  in
  Alcotest.(check bool) "validates" true (Oasis_trust.Registrar.validate (Civ.registrar civ) cert);
  Alcotest.(check bool) "records virtual time" true (cert.Audit.at = World.now world);
  let laundered = Audit.with_server_outcome cert Audit.Fulfilled in
  Alcotest.(check bool) "tamper rejected" false (Oasis_trust.Registrar.validate (Civ.registrar civ) laundered);
  (* Honest registrar: no fabrication. *)
  Alcotest.(check bool) "fabricate refused" true
    (match Oasis_trust.Registrar.fabricate (Civ.registrar civ) ~client ~server ~at:0.0 with
    | _ -> false
    | exception Invalid_argument _ -> true);
  (* Writes follow the primary. *)
  Civ.set_replica_down civ 0 true;
  Alcotest.(check bool) "primary down blocks audit" true
    (match
       Civ.record_interaction civ ~client ~server ~client_outcome:Audit.Fulfilled
         ~server_outcome:Audit.Fulfilled
     with
    | _ -> false
    | exception Civ.Primary_unavailable -> true)

let test_remote_predicate () =
  (* Sect. 2: a constraint answered by database lookup at another service. *)
  let world = World.create () in
  let registry =
    Service.create world ~name:"registry" ~policy:"initial noop <- env:eq(1, 1);" ()
  in
  Env.declare_fact (Service.env registry) "member";
  let club =
    Service.create world ~name:"club"
      ~policy:"initial insider(u) <- env:member_remote(u);" ()
  in
  Service.register_remote_predicate club ~local_name:"member_remote" ~at:(Service.id registry)
    ~remote_name:"member";
  let p = Principal.create world ~name:"p" in
  World.run_proc world (fun () ->
      let s = Principal.start_session p in
      match
        Principal.activate p s club ~role:"insider" ~args:[ Some (Value.Id (Principal.id p)) ] ()
      with
      | Error Protocol.No_proof -> ()
      | _ -> Alcotest.fail "non-member admitted");
  Env.assert_fact (Service.env registry) "member" [ Value.Id (Principal.id p) ];
  World.run_proc world (fun () ->
      let s = Principal.start_session p in
      match
        Principal.activate p s club ~role:"insider" ~args:[ Some (Value.Id (Principal.id p)) ] ()
      with
      | Ok _ -> ()
      | Error d -> Alcotest.failf "member denied: %s" (Protocol.denial_to_string d));
  (* The lookup really crossed the network. *)
  Alcotest.(check bool) "registry consulted" true
    (Fixtures.metric (World.obs world) "net.rpcs" >= 3);
  (* A dead registry counts as "does not hold", not a crash. *)
  Oasis_sim.Network.set_down (World.network world) (Service.id registry) true;
  World.run_proc world (fun () ->
      let s = Principal.start_session p in
      match
        Principal.activate p s club ~role:"insider" ~args:[ Some (Value.Id (Principal.id p)) ] ()
      with
      | Error Protocol.No_proof -> ()
      | _ -> Alcotest.fail "dead registry should deny")

let test_hour_window_role_expires () =
  (* A role gated on hour_between collapses when the window closes — purely
     time-driven deactivation (no fact changes, no revocation). Start at
     16:00; window 9-17. *)
  let world = World.create () in
  World.run_until world (16.0 *. 3600.0);
  let svc =
    Service.create world ~name:"svc"
      ~policy:"initial day_shift <- *env:hour_between(9, 17);" ()
  in
  let p = Principal.create world ~name:"p" in
  World.run_proc world (fun () ->
      match Principal.activate p (Principal.start_session p) svc ~role:"day_shift" () with
      | Ok _ -> ()
      | Error d -> Alcotest.failf "denied: %s" (Protocol.denial_to_string d));
  Alcotest.(check int) "active at 16:00" 1 (List.length (Service.active_roles svc));
  World.run_until world (16.9 *. 3600.0);
  Alcotest.(check int) "active at 16:54" 1 (List.length (Service.active_roles svc));
  World.run_until world (17.1 *. 3600.0);
  World.settle world;
  Alcotest.(check int) "deactivated at 17:06" 0 (List.length (Service.active_roles svc))

(* ---------------- trust robustness (DESIGN.md §16) ---------------- *)

let trust_gate_world ?(band = 0.15) () =
  let world = World.create () in
  let civ = Civ.create world ~name:"civ" () in
  let policy =
    Printf.sprintf
      "initial customer(u) <- *appt:account(u)@civ ;\n\
       trusted(u) <- *customer(u), *env:trust_score(u) >= 0.6%s ;"
      (if band > 0.0 then Printf.sprintf " ~ %g" band else "")
  in
  let gate = Service.create world ~name:"gate" ~policy () in
  let p = Principal.create world ~name:"subject" in
  let peer = Principal.create world ~name:"peer" in
  let appt =
    Civ.issue civ ~kind:"account"
      ~args:[ Value.Id (Principal.id p) ]
      ~holder:(Principal.id p)
      ~holder_key:(Principal.longterm_public p) ()
  in
  Principal.grant_appointment p appt;
  let s =
    World.run_proc world (fun () ->
        let s = Principal.start_session p in
        (match Principal.activate p s gate ~role:"customer" () with
        | Ok _ -> ()
        | Error d -> Alcotest.failf "customer denied: %s" (Protocol.denial_to_string d));
        s)
  in
  World.settle world;
  (world, civ, gate, p, s, Principal.id peer)

let interact world civ ~client ~server outcome =
  ignore
    (Civ.record_interaction civ ~client ~server ~client_outcome:outcome
       ~server_outcome:Audit.Fulfilled
      : Audit.t);
  World.settle world

let test_hysteresis_band () =
  let world, civ, gate, p, s, peer = trust_gate_world () in
  let me = Principal.id p in
  interact world civ ~client:me ~server:peer Audit.Fulfilled;
  interact world civ ~client:me ~server:peer Audit.Fulfilled;
  (* (2+1)/(2+2) = 0.75 >= 0.6: the gate grants. *)
  World.run_proc world (fun () ->
      match Principal.activate p s gate ~role:"trusted" () with
      | Ok _ -> ()
      | Error d -> Alcotest.failf "trusted denied at 0.75: %s" (Protocol.denial_to_string d));
  (* Two breaches drop the score to (2+1)/(4+2) = 0.5 — below the 0.6
     grant gate but inside the 0.15 hold band: the role survives, the
     absorbed flap is counted. *)
  interact world civ ~client:me ~server:peer Audit.Breached;
  interact world civ ~client:me ~server:peer Audit.Breached;
  Alcotest.(check int) "role survives inside the band" 2 (List.length (Service.active_roles gate));
  Alcotest.(check bool) "flaps suppressed counted" true
    ((Service.stats gate).Service.flaps_suppressed > 0);
  (* Fresh activations still need the full grant threshold. *)
  World.run_proc world (fun () ->
      match Principal.activate p s gate ~role:"trusted" () with
      | Ok _ -> Alcotest.fail "activation must use the grant threshold, not the hold band"
      | Error _ -> ());
  (* Two more breaches: (2+1)/(6+2) = 0.375 < 0.45 — out of the band. *)
  interact world civ ~client:me ~server:peer Audit.Breached;
  interact world civ ~client:me ~server:peer Audit.Breached;
  Alcotest.(check int) "revoked below the band" 1 (List.length (Service.active_roles gate))

(* The δ=0 gate revokes at 0.5 where the banded gate above held on. *)
let test_no_band_flaps () =
  let world, civ, gate, p, s, peer = trust_gate_world ~band:0.0 () in
  let me = Principal.id p in
  interact world civ ~client:me ~server:peer Audit.Fulfilled;
  interact world civ ~client:me ~server:peer Audit.Fulfilled;
  World.run_proc world (fun () ->
      match Principal.activate p s gate ~role:"trusted" () with
      | Ok _ -> ()
      | Error d -> Alcotest.failf "trusted denied at 0.75: %s" (Protocol.denial_to_string d));
  interact world civ ~client:me ~server:peer Audit.Breached;
  interact world civ ~client:me ~server:peer Audit.Breached;
  Alcotest.(check int) "no band: revoked at 0.5" 1 (List.length (Service.active_roles gate));
  Alcotest.(check int) "nothing suppressed" 0 (Service.stats gate).Service.flaps_suppressed

(* Anti-entropy re-delivery of an already-filed certificate must not
   cascade: the score did not move, so nobody is notified and no env-watch
   recheck runs. *)
let test_noop_redelivery_suppressed () =
  let world, civ, gate, p, s, peer = trust_gate_world () in
  let me = Principal.id p in
  interact world civ ~client:me ~server:peer Audit.Fulfilled;
  interact world civ ~client:me ~server:peer Audit.Fulfilled;
  World.run_proc world (fun () ->
      match Principal.activate p s gate ~role:"trusted" () with
      | Ok _ -> ()
      | Error d -> Alcotest.failf "trusted denied: %s" (Protocol.denial_to_string d));
  let cert =
    Civ.record_interaction civ ~client:me ~server:peer ~client_outcome:Audit.Fulfilled
      ~server_outcome:Audit.Fulfilled
  in
  World.settle world;
  let before = (Service.stats gate).Service.env_rechecks in
  Alcotest.(check bool) "genuine certs recheck the watch" true (before > 0);
  Alcotest.(check bool) "duplicate not filed" false
    (World.file_audit_certificate world cert ~party:me);
  World.settle world;
  Alcotest.(check int) "wallet unchanged" 3 (History.size (World.wallet world me));
  Alcotest.(check int) "no recheck cascade on a no-op notification" before
    (Service.stats gate).Service.env_rechecks;
  match Obs.value (World.obs world) "trust.notify_suppressed" with
  | Some v -> Alcotest.(check bool) "suppression counted" true (v >= 1.0)
  | None -> Alcotest.fail "trust.notify_suppressed not registered"

(* Registrar crash between the two wallet filings: exactly one wallet
   updated, repaired idempotently by restart anti-entropy. *)
let test_mid_issuance_crash_heals () =
  let world = World.create () in
  let civ = Civ.create world ~name:"civ" () in
  let a = Ident.make "alice" 1 and b = Ident.make "bob" 1 in
  let cert =
    Civ.record_interaction_crashing civ ~client:a ~server:b ~client_outcome:Audit.Fulfilled
      ~server_outcome:Audit.Fulfilled
  in
  World.settle world;
  Alcotest.(check int) "client wallet filed" 1 (History.size (World.wallet world a));
  Alcotest.(check int) "server wallet missed" 0 (History.size (World.wallet world b));
  Alcotest.(check int) "one pending filing" 1 (Civ.pending_filings civ);
  Alcotest.(check bool) "registrar is down" true
    (match
       Civ.record_interaction civ ~client:a ~server:b ~client_outcome:Audit.Fulfilled
         ~server_outcome:Audit.Fulfilled
     with
    | _ -> false
    | exception Civ.Primary_unavailable -> true);
  Fault.restart (World.fault world) (Civ.id civ);
  World.settle world;
  Alcotest.(check int) "server wallet healed" 1 (History.size (World.wallet world b));
  Alcotest.(check int) "client wallet not double-counted" 1 (History.size (World.wallet world a));
  Alcotest.(check int) "nothing pending" 0 (Civ.pending_filings civ);
  Alcotest.(check bool) "certificate still validates" true (Oasis_trust.Registrar.validate (Civ.registrar civ) cert)

(* Tampering with the durable decision-log export between crash and
   restart: restart refuses to resume with a distinct error and the
   service stays down. *)
let test_chain_tamper_fail_closed () =
  let world = World.create () in
  let svc = Service.create world ~name:"svc" ~policy:"initial r <- env:eq(1, 1);" () in
  let p = Principal.create world ~name:"p" in
  World.run_proc world (fun () ->
      let s = Principal.start_session p in
      match Principal.activate p s svc ~role:"r" () with
      | Ok _ -> ()
      | Error d -> Alcotest.failf "activate: %s" (Protocol.denial_to_string d));
  Alcotest.(check bool) "chain nonempty" true (Dlog.length (Service.decision_log svc) > 0);
  Service.crash svc;
  let key = "dlog:" ^ Ident.to_string (Service.id svc) in
  Alcotest.(check bool) "durable blob corrupted" true
    (Durable.corrupt (World.durable world) key ~byte:60);
  (match Service.restart svc with
  | () -> Alcotest.fail "tampered chain must refuse resume"
  | exception Service.Chain_tampered { service; _ } ->
      Alcotest.(check string) "refusal names the service" "svc" service);
  Alcotest.(check bool) "stays crashed (rolled back)" true (Service.is_crashed svc)

(* The live log writes into the chunk store the durable store keeps, so a
   log resumed from that store is the same chain: the two exports agree
   across grants, denials, revocations and a crash/restart, and the
   restarted service decodes its pre-crash records in full. *)
let test_durable_store_is_the_chain () =
  let t = Fixtures.make () in
  let hospital = t.Fixtures.hospital and alice = t.Fixtures.alice in
  let me = Value.Id (Principal.id alice) in
  let store () =
    let key = "dlog:" ^ Ident.to_string (Service.id hospital) in
    match Durable.find (World.durable t.Fixtures.world) key with
    | Some s -> s
    | None -> Alcotest.fail "no durable chain"
  in
  let same_chain label =
    match Dlog.resume ~service:(Service.id hospital) (store ()) with
    | Error (seq, why) -> Alcotest.failf "%s: resume failed at %d: %s" label seq why
    | Ok resumed ->
        Alcotest.(check string) label (Dlog.export (Service.decision_log hospital))
          (Dlog.export resumed)
  in
  let round patient =
    ignore (Fixtures.alice_treating t ~patient);
    World.run_proc t.Fixtures.world (fun () ->
        let s = Principal.start_session alice in
        ignore (Fixtures.ok (Principal.activate alice s hospital ~role:"logged_in" ()));
        match
          Principal.activate alice s hospital ~role:"treating_doctor"
            ~args:[ Some me; Some (Value.Int (patient + 100)) ]
            ()
        with
        | Ok _ -> Alcotest.fail "treating an unassigned patient must be denied"
        | Error _ -> ());
    Env.retract_fact (Service.env hospital) "assigned" [ me; Value.Int patient ];
    World.settle t.Fixtures.world
  in
  let count decision =
    List.length
      (List.filter
         (fun (r : Dlog.record) -> r.Dlog.decision = decision)
         (Dlog.records (Service.decision_log hospital)))
  in
  let all_kinds label =
    List.iter
      (fun d ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: some %s" label (Dlog.decision_label d))
          true
          (count d > 0))
      [ Dlog.Grant; Dlog.Deny; Dlog.Revoke ]
  in
  round 1;
  all_kinds "before the crash";
  same_chain "live export = resumed export before the crash";
  let before = Dlog.records (Service.decision_log hospital) in
  Alcotest.(check bool) "some pre-crash grant names its rule and creds" true
    (List.exists
       (fun (r : Dlog.record) -> r.decision = Dlog.Grant && r.rule <> "" && r.creds <> [])
       before);
  Service.crash hospital;
  Service.restart hospital;
  Alcotest.(check bool) "resumed records equal the pre-crash records, rule and creds included" true
    (List.filteri
       (fun i _ -> i < List.length before)
       (Dlog.records (Service.decision_log hospital))
    = before);
  same_chain "live export = resumed export after restart";
  round 2;
  all_kinds "after the restart";
  same_chain "live export = resumed export after more decisions";
  Alcotest.(check bool) "chain verifies" true
    (Dlog.verify (Service.decision_log hospital) = Ok (Dlog.length (Service.decision_log hospital)))

(* Every byte of a crashed service's stored chain, flipped and, separately,
   cut off there: restart either refuses with [Chain_tampered] or resumes
   exactly the first k pre-crash records. A flip is always refused; a cut
   resumes only at a record boundary, each boundary once — the rollback the
   chain alone cannot detect (decision_log.mli). Nothing is active at the
   crash, so a restart appends nothing of its own. *)
let test_crash_consistency_sweep () =
  let world = World.create ~seed:3 () in
  let svc = Service.create world ~name:"svc" ~policy:"initial base <- env:eq(1, 1);" () in
  let p = Principal.create world ~name:"p" in
  World.run_proc world (fun () ->
      let s = Principal.start_session p in
      let rmc = Fixtures.ok (Principal.activate p s svc ~role:"base" ()) in
      (match Principal.activate p s svc ~role:"nosuch" () with
      | Ok _ -> Alcotest.fail "an unknown role must be denied"
      | Error _ -> ());
      ignore (Service.revoke_certificate svc rmc.Oasis_cert.Rmc.id ~reason:"revoked");
      ignore (Fixtures.ok (Principal.activate p s svc ~role:"base" ()));
      Principal.logout p s);
  World.settle world;
  Alcotest.(check int) "nothing active at the crash" 0 (List.length (Service.active_roles svc));
  let pre = Dlog.records (Service.decision_log svc) in
  List.iter
    (fun d ->
      Alcotest.(check bool) ("some " ^ Dlog.decision_label d) true
        (List.exists (fun (r : Dlog.record) -> r.decision = d) pre))
    [ Dlog.Grant; Dlog.Deny; Dlog.Revoke ];
  Service.crash svc;
  let durable = World.durable world and key = "dlog:" ^ Ident.to_string (Service.id svc) in
  let stored =
    match Durable.find durable key with
    | Some c -> Oasis_util.Chunks.sub_string c 0 (Oasis_util.Chunks.length c)
    | None -> Alcotest.fail "no durable chain"
  in
  (* Some k when restart resumed k records (then crashes it again), None
     when it refused. *)
  let restart_with bytes ~flip =
    Durable.set durable key (Oasis_util.Chunks.of_string bytes);
    Option.iter (fun byte -> assert (Durable.corrupt durable key ~byte)) flip;
    match Service.restart svc with
    | () ->
        let resumed = Dlog.records (Service.decision_log svc) in
        let k = List.length resumed in
        if resumed <> List.filteri (fun i _ -> i < k) pre then
          Alcotest.failf "resumed %d records that are not the first %d pre-crash ones" k k;
        Service.crash svc;
        Some k
    | exception Service.Chain_tampered _ ->
        Alcotest.(check bool) "a refused restart stays down" true (Service.is_crashed svc);
        None
  in
  let n = String.length stored in
  for off = 0 to n - 1 do
    match restart_with stored ~flip:(Some off) with
    | Some k -> Alcotest.failf "flipping byte %d of %d resumed %d records" off n k
    | None -> ()
  done;
  let resumed_at =
    List.filter_map
      (fun off -> restart_with (String.sub stored 0 off) ~flip:None)
      (List.init (n + 1) Fun.id)
  in
  Alcotest.(check (list int)) "a cut resumes once per record boundary, and nowhere else"
    (List.init (List.length pre + 1) Fun.id)
    resumed_at

let suite =
  ( "world",
    [
      Alcotest.test_case "registry" `Quick test_registry;
      Alcotest.test_case "run_proc deadlock" `Quick test_run_proc_detects_deadlock;
      Alcotest.test_case "bad heartbeat settings refused" `Quick test_bad_heartbeat_settings;
      Alcotest.test_case "settle semantics" `Quick test_settle_leaves_future_timers;
      Alcotest.test_case "fresh ids" `Quick test_fresh_ids_distinct;
      Alcotest.test_case "multiple sessions" `Quick test_multiple_sessions_per_principal;
      Alcotest.test_case "policy errors contained" `Quick test_policy_errors_contained;
      Alcotest.test_case "wallet" `Quick test_principal_wallet_management;
      Alcotest.test_case "node refuses non-challenge" `Quick
        test_principal_node_rejects_non_challenge;
      Alcotest.test_case "civ audit extension" `Quick test_civ_audit_extension;
      Alcotest.test_case "remote predicate" `Quick test_remote_predicate;
      Alcotest.test_case "hour-window deactivation" `Quick test_hour_window_role_expires;
      Alcotest.test_case "hysteresis band holds" `Quick test_hysteresis_band;
      Alcotest.test_case "no band flaps" `Quick test_no_band_flaps;
      Alcotest.test_case "no-op re-delivery suppressed" `Quick test_noop_redelivery_suppressed;
      Alcotest.test_case "mid-issuance crash heals" `Quick test_mid_issuance_crash_heals;
      Alcotest.test_case "chain tamper fail-closed" `Quick test_chain_tamper_fail_closed;
      Alcotest.test_case "durable store = live export" `Quick test_durable_store_is_the_chain;
      Alcotest.test_case "crash-consistency sweep" `Quick test_crash_consistency_sweep;
    ] )
