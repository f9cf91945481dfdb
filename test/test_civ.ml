(* The replicated certificate issuing & validation service (ref [10]). *)

module World = Oasis_core.World
module Service = Oasis_core.Service
module Principal = Oasis_core.Principal
module Protocol = Oasis_core.Protocol
module Civ = Oasis_domain.Civ
module Value = Oasis_util.Value
module Network = Oasis_sim.Network

let make_civ ?(replicas = 3) ?monitoring ?notify_latency ?replication ?offline_sign () =
  let world = World.create ~seed:21 ?monitoring ?notify_latency () in
  let civ = Civ.create world ~name:"civ" ~replicas ?replication ?offline_sign () in
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
          (Protocol.Validate_appt { appt })
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
  (* Once replication lands, every replica answers on its own; a replica
     that has not heard yet forwards to the primary (next test). *)
  let world, civ = make_civ () in
  let p = Principal.create world ~name:"p" in
  let appt = issue_for world civ p in
  World.settle world;
  Alcotest.(check (list bool)) "replicas caught up" [ true; true; true ]
    (validate_at_each_replica world civ appt);
  Alcotest.(check int) "no primary fallbacks" 0 (Civ.stats civ).Civ.forwarded_to_primary

let test_unreplicated_cert_forwarded_to_primary () =
  (* Validation arriving before replication: replica forwards to primary
     rather than denying a fresh certificate. *)
  (* Slow replication channel: validation requests overtake replication. *)
  let world, civ = make_civ ~notify_latency:0.5 () in
  let p = Principal.create world ~name:"p" in
  let probe = Principal.create world ~name:"probe2" in
  let result =
    World.run_proc world (fun () ->
        let appt =
          Civ.issue civ ~kind:"member" ~args:[] ~holder:(Principal.id p)
            ~holder_key:(Principal.longterm_public p) ()
        in
        (* Ask immediately — replication events still in flight. Drive the
           router until we hit a non-primary replica. *)
        let oks = ref true in
        for _ = 1 to 3 do
          match
            Network.rpc (World.network world) ~src:(Principal.id probe) ~dst:(Civ.id civ)
              (Protocol.Validate_appt { appt })
          with
          | Protocol.Validate_result ok -> oks := !oks && ok
          | _ -> oks := false
        done;
        !oks)
  in
  Alcotest.(check bool) "all validations true" true result;
  Alcotest.(check bool) "some were forwarded" true ((Civ.stats civ).Civ.forwarded_to_primary >= 1)

let test_revocation_propagates () =
  let world, civ = make_civ () in
  let p = Principal.create world ~name:"p" in
  let appt = issue_for world civ p in
  World.settle world;
  Alcotest.(check bool) "revoke succeeds" true
    (Civ.revoke civ appt.Oasis_cert.Appointment.id ~reason:"expelled");
  Alcotest.(check bool) "second revoke is false" false
    (Civ.revoke civ appt.Oasis_cert.Appointment.id ~reason:"again");
  World.settle world;
  Alcotest.(check (list bool)) "replicas see revocation" [ false; false; false ]
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
  Alcotest.(check int) "epoch" 1 (Civ.current_epoch civ);
  Alcotest.(check bool) "stale epoch rejected" false (validate_via_router world civ appt)

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

let test_sync_replication_no_staleness () =
  (* ref [10]'s consistency management, Sync flavour: replicas are
     consistent the moment the write returns — no lag, no primary fallback,
     even over a slow replication channel. *)
  let world, civ = make_civ ~replication:Civ.Sync ~notify_latency:0.5 () in
  let p = Principal.create world ~name:"p" in
  let appt = issue_for world civ p in
  let id = appt.Oasis_cert.Appointment.id in
  Alcotest.(check (list bool)) "replicas immediately consistent" [ true; true; true ]
    (validate_at_each_replica world civ appt);
  Alcotest.(check int) "no primary fallbacks" 0 (Civ.stats civ).Civ.forwarded_to_primary;
  Alcotest.(check bool) "revoked" true (Civ.revoke civ id ~reason:"x");
  Alcotest.(check (list bool)) "revocation also synchronous" [ false; false; false ]
    (validate_at_each_replica world civ appt)

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

let suite =
  ( "civ",
    [
      Alcotest.test_case "issue and validate" `Quick test_issue_and_validate;
      Alcotest.test_case "replication lag" `Quick test_replication_lag;
      Alcotest.test_case "forward to primary" `Quick test_unreplicated_cert_forwarded_to_primary;
      Alcotest.test_case "revocation propagates" `Quick test_revocation_propagates;
      Alcotest.test_case "failover" `Quick test_failover;
      Alcotest.test_case "reads survive primary down" `Quick test_reads_survive_primary_down;
      Alcotest.test_case "all replicas down" `Quick test_all_replicas_down;
      Alcotest.test_case "round robin" `Quick test_round_robin_spreads_load;
      Alcotest.test_case "epoch rotation" `Quick test_epoch_rotation;
      Alcotest.test_case "backs service policy" `Quick test_civ_backs_service_policy;
      Alcotest.test_case "sync replication" `Quick test_sync_replication_no_staleness;
      Alcotest.test_case "reissue after rotation" `Quick test_reissue_after_rotation;
      Alcotest.test_case "expiring certificate" `Quick test_expiring_civ_certificate;
    ] )
