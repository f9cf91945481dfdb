(* The replicated certificate issuing & validation service (ref [10]). *)

module World = Oasis_core.World
module Service = Oasis_core.Service
module Principal = Oasis_core.Principal
module Protocol = Oasis_core.Protocol
module Civ = Oasis_domain.Civ
module Value = Oasis_util.Value
module Network = Oasis_sim.Network

let make_civ ?monitoring ?notify_latency ?offline_sign () =
  let world = World.create ~seed:21 ?monitoring ?notify_latency () in
  let civ = Civ.create world ~name:"civ" ?offline_sign () in
  (world, civ)

(* Rotation and re-issue are checked under both signing schemes. *)
let both_schemes f = List.iter (fun offline_sign -> f (make_civ ~offline_sign ())) [ true; false ]

let issue_for _world civ principal =
  let appt =
    Civ.issue civ ~kind:"member"
      ~args:[ Value.Id (Principal.id principal) ]
      ~holder:(Principal.id principal) ~holder_key:(Principal.longterm_public principal) ()
  in
  Principal.grant_appointment principal appt;
  appt

let validate_via_router world civ appt =
  (* As a relying service would: rpc to the router. *)
  let probe = Principal.create world ~name:"probe" in
  World.run_proc world (fun () ->
      match
        Network.rpc (World.network world) ~src:(Principal.id probe) ~dst:(Civ.id civ)
          (Protocol.Validate (Oasis_cert.Validation_cache.Appointment appt))
      with
      | Protocol.Validate_result ok -> ok
      | _ -> false)

let test_issue_and_validate () =
  let world, civ = make_civ () in
  let p = Principal.create world ~name:"p" in
  let appt = issue_for world civ p in
  Alcotest.(check bool) "primary view valid" true (Civ.is_valid civ appt.Oasis_cert.Appointment.id);
  Alcotest.(check bool) "validates via router" true (validate_via_router world civ appt)

(* Validations served at every replica in turn (the router's round robin),
   each answered from that replica's own view. *)
let validate_at_each_replica world civ appt =
  List.init 3 (fun _ -> validate_via_router world civ appt)

let test_replication_lag () =
  (* Every replica answers on its own, from the cluster's one store. *)
  let world, civ = make_civ () in
  let p = Principal.create world ~name:"p" in
  let appt = issue_for world civ p in
  World.settle world;
  Alcotest.(check (list bool)) "replicas caught up" [ true; true; true ]
    (validate_at_each_replica world civ appt)

let test_fresh_certificate_at_every_replica () =
  (* A certificate validates at every replica the moment it is issued,
     even over a slow event channel, and no replica asks the primary: each
     validation is the relying side's RPC to the router and the router's to
     one replica. *)
  let world, civ = make_civ ~notify_latency:0.5 () in
  let p = Principal.create world ~name:"p" in
  let appt = issue_for world civ p in
  let rpcs () = Fixtures.metric (World.obs world) "net.rpcs" in
  let before = rpcs () in
  Alcotest.(check (list bool)) "every replica validates at once" [ true; true; true ]
    (validate_at_each_replica world civ appt);
  Alcotest.(check int) "two RPCs per validation" 6 (rpcs () - before);
  Alcotest.(check (array int)) "each replica served one" [| 1; 1; 1 |]
    (Civ.stats civ).Civ.validations_served

let test_revocation_propagates () =
  (* A revocation is seen by every replica the moment the primary writes
     it: no settle, and a slow event channel changes nothing. *)
  let world, civ = make_civ ~notify_latency:0.5 () in
  let p = Principal.create world ~name:"p" in
  let appt = issue_for world civ p in
  World.settle world;
  Alcotest.(check bool) "revoke succeeds" true
    (Civ.revoke civ appt.Oasis_cert.Appointment.id ~reason:"expelled");
  Alcotest.(check bool) "second revoke is false" false
    (Civ.revoke civ appt.Oasis_cert.Appointment.id ~reason:"again");
  Alcotest.(check (list bool)) "replicas refuse at once" [ false; false; false ]
    (validate_at_each_replica world civ appt)

let test_failover () =
  let world, civ = make_civ () in
  let p = Principal.create world ~name:"p" in
  let appt = issue_for world civ p in
  World.settle world;
  (* Kill replica 1; the router must fail over transparently. *)
  Civ.set_replica_down civ 1 true;
  for _ = 1 to 6 do
    Alcotest.(check bool) "validates despite dead replica" true
      (validate_via_router world civ appt)
  done;
  Alcotest.(check bool) "failovers recorded" true ((Civ.stats civ).Civ.failovers >= 1)

let test_reads_survive_primary_down () =
  let world, civ = make_civ () in
  let p = Principal.create world ~name:"p" in
  let appt = issue_for world civ p in
  World.settle world;
  Civ.set_replica_down civ 0 true;
  Alcotest.(check bool) "replicas still validate" true (validate_via_router world civ appt);
  (* Writes are unavailable. *)
  Alcotest.(check bool) "issue raises" true
    (match
       Civ.issue civ ~kind:"member" ~args:[] ~holder:(Principal.id p)
         ~holder_key:(Principal.longterm_public p) ()
     with
    | _ -> false
    | exception Civ.Primary_unavailable -> true);
  Alcotest.(check bool) "revoke unavailable" false
    (Civ.revoke civ appt.Oasis_cert.Appointment.id ~reason:"x")

let test_all_replicas_down () =
  let world, civ = make_civ () in
  let p = Principal.create world ~name:"p" in
  let appt = issue_for world civ p in
  World.settle world;
  for i = 0 to 2 do
    Civ.set_replica_down civ i true
  done;
  Alcotest.(check bool) "exhausted returns false" false (validate_via_router world civ appt);
  Alcotest.(check bool) "exhaustion recorded" true ((Civ.stats civ).Civ.exhausted >= 1)

let test_round_robin_spreads_load () =
  let world, civ = make_civ () in
  let p = Principal.create world ~name:"p" in
  let appt = issue_for world civ p in
  World.settle world;
  for _ = 1 to 9 do
    ignore (validate_via_router world civ appt)
  done;
  let served = (Civ.stats civ).Civ.validations_served in
  Array.iteri
    (fun i n -> Alcotest.(check bool) (Printf.sprintf "replica %d served ~3 (%d)" i n) true (n >= 2))
    served

let test_epoch_rotation () =
  both_schemes @@ fun (world, civ) ->
  let p = Principal.create world ~name:"p" in
  let appt = issue_for world civ p in
  World.settle world;
  Civ.rotate_secret civ;
  Alcotest.(check bool) "stale epoch rejected" false (validate_via_router world civ appt);
  let fresh = issue_for world civ p in
  World.settle world;
  Alcotest.(check int) "issued under the bumped epoch" 1 fresh.Oasis_cert.Appointment.epoch;
  Alcotest.(check bool) "current epoch accepted" true (validate_via_router world civ fresh)

let test_civ_backs_service_policy () =
  (* A service whose role is gated on a CIV-issued appointment. *)
  let world, civ = make_civ () in
  let clinic =
    Service.create world ~name:"clinic" ~policy:"initial patient(u) <- appt:member(u)@civ;" ()
  in
  let p = Principal.create world ~name:"p" in
  ignore (issue_for world civ p);
  World.settle world;
  World.run_proc world (fun () ->
      let s = Principal.start_session p in
      match Principal.activate p s clinic ~role:"patient" () with
      | Ok _ -> ()
      | Error d -> Alcotest.failf "denied: %s" (Protocol.denial_to_string d));
  (* Revoke at CIV: patient role collapses? Only if membership-marked — it
     is not here; but fresh activation fails. *)
  let appt = List.hd (Principal.appointments p) in
  ignore (Civ.revoke civ appt.Oasis_cert.Appointment.id ~reason:"lapsed");
  World.settle world;
  World.run_proc world (fun () ->
      let s2 = Principal.start_session p in
      match Principal.activate p s2 clinic ~role:"patient" () with
      | Error Protocol.No_proof -> ()
      | _ -> Alcotest.fail "revoked membership accepted")

let test_reissue_after_rotation () =
  (* Sect. 4.1: rotation invalidates old appointment certificates; re-issue
     under the new epoch secret restores service. *)
  both_schemes @@ fun (world, civ) ->
  let p = Principal.create world ~name:"p" in
  let old = issue_for world civ p in
  World.settle world;
  Civ.rotate_secret civ;
  Alcotest.(check bool) "old rejected after rotation" false (validate_via_router world civ old);
  let fresh =
    match Civ.reissue civ old with Ok a -> a | Error e -> Alcotest.failf "reissue: %s" e
  in
  World.settle world;
  Alcotest.(check bool) "fresh validates" true (validate_via_router world civ fresh);
  Alcotest.(check bool) "same content" true
    (String.equal fresh.Oasis_cert.Appointment.kind old.Oasis_cert.Appointment.kind
    && String.equal fresh.Oasis_cert.Appointment.holder old.Oasis_cert.Appointment.holder);
  Alcotest.(check bool) "old record superseded" false
    (Civ.is_valid civ old.Oasis_cert.Appointment.id);
  (* Re-issuing a revoked or forged certificate is refused. *)
  (match Civ.reissue civ old with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "superseded certificate re-issued again");
  let forged = Oasis_cert.Appointment.with_args fresh [ Oasis_util.Value.Int 666 ] in
  match Civ.reissue civ forged with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "forged certificate re-issued"

let test_expiring_civ_certificate () =
  let world, civ = make_civ () in
  let p = Principal.create world ~name:"p" in
  let appt =
    Civ.issue civ ~kind:"member" ~args:[] ~holder:(Principal.id p)
      ~holder_key:(Principal.longterm_public p) ~expires_at:100.0 ()
  in
  World.run_until world 50.0;
  Alcotest.(check bool) "valid before expiry" true (Civ.is_valid civ appt.Oasis_cert.Appointment.id);
  World.run_until world 101.0;
  World.settle world;
  Alcotest.(check bool) "auto-revoked at expiry" false
    (Civ.is_valid civ appt.Oasis_cert.Appointment.id)

(* Anti-entropy reads the one store as a validation does: a suspect role
   backed by a CIV appointment reconciles through any replica the router
   reaches. [replicas_down] are down from the heal on. The service
   reconciles well inside its grace, so the role ends reinstated, revoked
   or, when nothing answered, degraded fail-closed at the grace. *)
let reconcile_with_replicas_down replicas_down =
  let world, civ = make_civ ~offline_sign:false () in
  let config =
    {
      Service.default_config with
      suspect_grace = 5.0;
      retry = { Oasis_util.Backoff.default with base = 0.01; cap = 0.2; max_attempts = 3 };
    }
  in
  let clinic =
    Service.create world ~name:"clinic" ~config
      ~policy:"initial patient(u) <- *appt:member(u)@civ;" ()
  in
  let activate p =
    World.run_proc world (fun () ->
        Principal.activate p (Principal.start_session p) clinic ~role:"patient" ())
  in
  let p = Principal.create world ~name:"p" and q = Principal.create world ~name:"q" in
  ignore (issue_for world civ p);
  ignore (issue_for world civ q);
  let rmc =
    match activate p with
    | Ok rmc -> rmc
    | Error d -> Alcotest.failf "denied: %s" (Protocol.denial_to_string d)
  in
  (* q's activation needs a callback the partition cuts: the CIV is
     unreachable, and p's role goes suspect. *)
  let fault = World.fault world in
  Oasis_sim.Fault.partition fault ~name:"wan" [ Service.id clinic ] [ Civ.id civ ];
  Alcotest.(check bool) "denied across the partition" true (Result.is_error (activate q));
  Alcotest.(check int) "role suspect" 1 (List.length (Service.suspect_roles clinic));
  List.iter (fun i -> Civ.set_replica_down civ i true) replicas_down;
  Oasis_sim.Fault.heal fault "wan";
  World.run_until world (World.now world +. 6.0);
  let outcome o =
    Fixtures.metric (World.obs world) (Printf.sprintf "svc.reconciled{outcome=%s,service=clinic}" o)
  in
  ( outcome "reinstated",
    outcome "revoked",
    Service.is_valid_certificate clinic rmc.Oasis_cert.Rmc.id )

let test_reconcile_survives_primary_down () =
  let reinstated, revoked, active = reconcile_with_replicas_down [ 0 ] in
  Alcotest.(check int) "reinstated through a replica" 1 reinstated;
  Alcotest.(check int) "not revoked" 0 revoked;
  Alcotest.(check bool) "role still active" true active

let test_reconcile_without_replicas_unresolved () =
  let reinstated, revoked, active = reconcile_with_replicas_down [ 0; 1; 2 ] in
  Alcotest.(check (pair int int)) "no status, no outcome" (0, 0) (reinstated, revoked);
  Alcotest.(check bool) "degraded fail-closed at the grace" false active

let suite =
  ( "civ",
    [
      Alcotest.test_case "issue and validate" `Quick test_issue_and_validate;
      Alcotest.test_case "replication lag" `Quick test_replication_lag;
      Alcotest.test_case "fresh certificate at every replica" `Quick
        test_fresh_certificate_at_every_replica;
      Alcotest.test_case "revocation propagates" `Quick test_revocation_propagates;
      Alcotest.test_case "failover" `Quick test_failover;
      Alcotest.test_case "reads survive primary down" `Quick test_reads_survive_primary_down;
      Alcotest.test_case "all replicas down" `Quick test_all_replicas_down;
      Alcotest.test_case "round robin" `Quick test_round_robin_spreads_load;
      Alcotest.test_case "epoch rotation" `Quick test_epoch_rotation;
      Alcotest.test_case "backs service policy" `Quick test_civ_backs_service_policy;
      Alcotest.test_case "reissue after rotation" `Quick test_reissue_after_rotation;
      Alcotest.test_case "expiring certificate" `Quick test_expiring_civ_certificate;
      Alcotest.test_case "reconcile survives primary down" `Quick
        test_reconcile_survives_primary_down;
      Alcotest.test_case "reconcile without replicas unresolved" `Quick
        test_reconcile_without_replicas_unresolved;
    ] )
