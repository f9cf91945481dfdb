(* Fault injection: partitions, crash/restart, suspect roles, anti-entropy
   reconciliation, and the shared backoff policy. *)

module World = Oasis_core.World
module Service = Oasis_core.Service
module Principal = Oasis_core.Principal
module Protocol = Oasis_core.Protocol
module Fault = Oasis_sim.Fault
module Backoff = Oasis_util.Backoff
module Rng = Oasis_util.Rng
module Value = Oasis_util.Value
module Civ = Oasis_domain.Civ

let ok = function
  | Ok v -> v
  | Error d -> Alcotest.failf "unexpected denial: %s" (Protocol.denial_to_string d)

(* A grace period long enough that reconciliation (polling every retry.cap)
   always beats the fail-closed timer once the link is back. *)
let fault_config =
  {
    Service.default_config with
    suspect_grace = 5.0;
    retry = { Backoff.default with base = 0.01; cap = 0.2; max_attempts = 3 };
  }

(* These tests exercise the validation-RPC failure detector and the
   suspect/reconciliation machinery, so the issuer signs with the epoch
   HMAC: an offline-verifiable issuer would have its certificates checked
   locally, never touching the faulty link. *)
let hmac_issuer = { Service.default_config with offline_sign = false }

let build ?(seed = 1) ?(config = fault_config) ?monitoring () =
  let world = World.create ~seed ?monitoring () in
  let issuer =
    Service.create world ~name:"issuer" ~config:hmac_issuer
      ~policy:"initial base <- env:eq(1, 1);" ()
  in
  let relying =
    Service.create world ~name:"relying" ~config ~policy:"derived <- *base@issuer;" ()
  in
  (world, issuer, relying)

(* Walks one principal to an active [derived] role backed by a monitored
   remote [base] credential. *)
let establish world issuer relying =
  let p = Principal.create world ~name:"p" in
  World.run_proc world (fun () ->
      let s = Principal.start_session p in
      let base = ok (Principal.activate p s issuer ~role:"base" ()) in
      let derived = ok (Principal.activate p s relying ~role:"derived" ()) in
      (p, s, base, derived))

(* The Change_events failure detector is an exhausted validation callback:
   a second principal's activation attempt forces one and must be denied
   while the issuer is unreachable. *)
let provoke world issuer relying =
  let q = Principal.create world ~name:"q" in
  World.run_proc world (fun () ->
      let s = Principal.start_session q in
      ignore (ok (Principal.activate q s issuer ~role:"base" ()));
      match Principal.activate q s relying ~role:"derived" () with
      | Ok _ -> Alcotest.fail "derived granted across a partition"
      | Error _ -> ())

let cut world issuer relying =
  Fault.partition (World.fault world) ~name:"wan" [ Service.id relying ] [ Service.id issuer ]

let heal world = Fault.heal (World.fault world) "wan"

(* The world's default event-delivery latency. *)
let notify_latency = 0.001

let test_partition_suspect_reinstate () =
  let world, issuer, relying = build () in
  let _, _, _, derived = establish world issuer relying in
  cut world issuer relying;
  provoke world issuer relying;
  let dropped = Fixtures.metric (World.obs world) "net.dropped{cause=partitioned}" in
  Alcotest.(check bool) "partition drops counted" true (dropped > 0);
  Alcotest.(check int) "role is suspect, not dropped" 1
    (List.length (Service.suspect_roles relying));
  Alcotest.(check bool) "suspect role still active" true
    (Service.is_valid_certificate relying derived.Oasis_cert.Rmc.id);
  heal world;
  World.settle world;
  Alcotest.(check int) "suspect resolved after heal" 0
    (List.length (Service.suspect_roles relying));
  let stats = Service.stats relying in
  Alcotest.(check int) "reinstated by reconciliation" 1 stats.Service.reconciled_reinstated;
  Alcotest.(check int) "nothing revoked" 0 stats.Service.reconciled_revoked;
  Alcotest.(check bool) "role survives" true
    (Service.is_valid_certificate relying derived.Oasis_cert.Rmc.id)

(* The partition swallows the revocation's beat; the stale role goes
   suspect when a callback fails. The issuer re-sends its latest beat at
   the heal, so the role collapses within one delivery latency, before the
   reconciler's next poll (reconciliation still completes a revocation
   missed while crashed: "crash misses revocation"). *)
let test_missed_revocation_resent () =
  let world, issuer, relying = build () in
  let _, _, base, derived = establish world issuer relying in
  cut world issuer relying;
  ignore (Service.revoke_certificate issuer base.Oasis_cert.Rmc.id ~reason:"gone");
  World.settle world;
  let suppressed = Fixtures.metric (World.obs world) "broker.suppressed{cause=partitioned}" in
  Alcotest.(check bool) "invalidation suppressed by partition" true (suppressed > 0);
  Alcotest.(check bool) "grant is stale while partitioned" true
    (Service.is_valid_certificate relying derived.Oasis_cert.Rmc.id);
  provoke world issuer relying;
  Alcotest.(check int) "stale role suspect" 1 (List.length (Service.suspect_roles relying));
  heal world;
  World.run_until world (World.now world +. notify_latency +. 1e-6);
  Alcotest.(check bool) "missed revocation completed" false
    (Service.is_valid_certificate relying derived.Oasis_cert.Rmc.id);
  World.settle world;
  let stats = Service.stats relying in
  Alcotest.(check int) "by the re-sent notice, not by reconciliation" 0
    (stats.Service.reconciled_revoked + stats.Service.reconciled_reinstated);
  Alcotest.(check int) "no suspect left" 0 (List.length (Service.suspect_roles relying));
  Alcotest.(check bool) "counted as cascade" true (stats.Service.cascade_deactivations >= 1)

let test_grace_expiry_fail_closed () =
  let world, issuer, relying = build () in
  let _, _, _, derived = establish world issuer relying in
  cut world issuer relying;
  provoke world issuer relying;
  Alcotest.(check int) "suspect" 1 (List.length (Service.suspect_roles relying));
  (* Never heal: the grace timer must degrade fail-closed. *)
  World.run_until world (World.now world +. fault_config.Service.suspect_grace +. 1.0);
  Alcotest.(check int) "suspect resolved by degradation" 0
    (List.length (Service.suspect_roles relying));
  Alcotest.(check bool) "role conservatively deactivated" false
    (Service.is_valid_certificate relying derived.Oasis_cert.Rmc.id);
  let stats = Service.stats relying in
  Alcotest.(check int) "no reconciliation outcome" 0
    (stats.Service.reconciled_reinstated + stats.Service.reconciled_revoked)

let test_crash_restart_reinstates () =
  let world, issuer, relying = build () in
  let _, _, _, derived = establish world issuer relying in
  Service.crash relying;
  Alcotest.(check bool) "crashed" true (Service.is_crashed relying);
  Alcotest.(check bool) "durable record survives the crash" true
    (Service.is_valid_certificate relying derived.Oasis_cert.Rmc.id);
  Alcotest.(check int) "no suspects while down" 0 (List.length (Service.suspect_roles relying));
  Service.restart relying;
  Alcotest.(check bool) "restarted" false (Service.is_crashed relying);
  Alcotest.(check bool) "remote deps unverified after restart" true
    (List.length (Service.suspect_roles relying) >= 1);
  World.settle world;
  Alcotest.(check int) "reconciliation resolves the restart" 0
    (List.length (Service.suspect_roles relying));
  Alcotest.(check bool) "role reinstated" true
    (Service.is_valid_certificate relying derived.Oasis_cert.Rmc.id);
  Alcotest.(check int) "reinstated outcome counted" 1
    (Service.stats relying).Service.reconciled_reinstated

let test_crash_misses_revocation () =
  let world, issuer, relying = build () in
  let _, _, base, derived = establish world issuer relying in
  Service.crash relying;
  ignore (Service.revoke_certificate issuer base.Oasis_cert.Rmc.id ~reason:"gone");
  World.settle world;
  Service.restart relying;
  World.settle world;
  Alcotest.(check bool) "revocation missed while down is completed" false
    (Service.is_valid_certificate relying derived.Oasis_cert.Rmc.id);
  Alcotest.(check int) "reconciled as revoked" 1
    (Service.stats relying).Service.reconciled_revoked

let test_heartbeat_silence_suspect () =
  let monitoring = World.Heartbeats { period = 0.5; deadline = 1.5 } in
  let world, issuer, relying = build ~monitoring () in
  let _, _, _, derived = establish world issuer relying in
  cut world issuer relying;
  (* Beats are suppressed by the partition; the monitor fires Silence. *)
  World.run_until world (World.now world +. 2.5);
  Alcotest.(check int) "silence makes the role suspect" 1
    (List.length (Service.suspect_roles relying));
  Alcotest.(check bool) "still active inside the grace" true
    (Service.is_valid_certificate relying derived.Oasis_cert.Rmc.id);
  heal world;
  World.run_until world (World.now world +. 1.0);
  Alcotest.(check int) "resolved within grace of heal" 0
    (List.length (Service.suspect_roles relying));
  Alcotest.(check bool) "role reinstated" true
    (Service.is_valid_certificate relying derived.Oasis_cert.Rmc.id)

(* ---------------- The issuer's beat (Fig. 5, heartbeat mode) -------- *)

let beat_period = 0.5
let beat_deadline = 1.5
let beats = World.Heartbeats { period = beat_period; deadline = beat_deadline }

(* A counter a test may read before anything bumped it. *)
let count world key = Option.value (Oasis_obs.Obs.value (World.obs world) key) ~default:0.0

let still_active relying (derived : Oasis_cert.Rmc.t) =
  Service.is_valid_certificate relying derived.Oasis_cert.Rmc.id

(* The rule of the relying service's last Revoke decision. *)
let last_revoke_rule relying =
  match
    List.rev (Oasis_trust.Decision_log.records (Service.decision_log relying))
    |> List.find_opt (fun (r : Oasis_trust.Decision_log.record) ->
           r.decision = Oasis_trust.Decision_log.Revoke)
  with
  | Some r -> r.rule
  | None -> Alcotest.fail "no Revoke decision"

(* Two relying services keep one monitor each on one issuer's feed. The
   beats keep both quiet; one retires its monitor when its last watched
   role is released, and the issuer's silence then fails only the other. *)
let test_concurrent_monitors_independent () =
  let world = World.create ~seed:3 ~monitoring:beats () in
  let issuer = Service.create world ~name:"issuer" ~policy:"initial base <- env:eq(1, 1);" () in
  let relying name = Service.create world ~name ~policy:"derived <- *base@issuer;" () in
  let r1 = relying "r1" and r2 = relying "r2" in
  let p = Principal.create world ~name:"p" in
  let s = Principal.start_session p in
  let d1, d2 =
    World.run_proc world (fun () ->
        ignore (ok (Principal.activate p s issuer ~role:"base" ()));
        ( ok (Principal.activate p s r1 ~role:"derived" ()),
          ok (Principal.activate p s r2 ~role:"derived" ()) ))
  in
  World.run_until world 3.0;
  Alcotest.(check (float 0.0)) "beats keep both monitors quiet" 0.0 (count world "hb.misses");
  Alcotest.(check bool) "r1 releases its role" true
    (World.run_proc world (fun () -> Principal.deactivate p s d1));
  Service.crash issuer;
  World.run_until world 6.0;
  Alcotest.(check (float 0.0)) "only the live monitor fires" 1.0 (count world "hb.misses");
  Alcotest.(check bool) "r2's role failed by the silence" false (still_active r2 d2);
  Alcotest.(check bool) "for the missed beat" true
    (String.ends_with ~suffix:"heartbeat missed" (last_revoke_rule r2));
  Alcotest.(check bool) "r1's role released by its principal" true
    (String.equal "deactivated by principal" (last_revoke_rule r1))

(* The issuer's beats fall one period apart from its first issue (t ~ 0);
   t = 2.2 sits between two of them. The next beat names the revocation,
   so the role collapses within one period and the notification latency,
   with no missed beat. *)
let test_beat_announces_revocation () =
  let world, issuer, relying = build ~monitoring:beats () in
  let _, _, base, derived = establish world issuer relying in
  World.run_until world 2.2;
  let revoked_at = World.now world in
  ignore (Service.revoke_certificate issuer base.Oasis_cert.Rmc.id ~reason:"struck off");
  World.run_until world (revoked_at +. 0.1);
  Alcotest.(check bool) "nothing announced between beats" true (still_active relying derived);
  World.run_until world (revoked_at +. beat_period +. notify_latency +. 1e-6);
  Alcotest.(check bool) "collapsed within period + notify latency" false
    (still_active relying derived);
  Alcotest.(check bool) "for the revocation's reason" true
    (String.ends_with ~suffix:"invalid: struck off" (last_revoke_rule relying));
  Alcotest.(check (float 0.0)) "no missed beat" 0.0 (count world "hb.misses");
  Alcotest.(check int) "never suspect" 0 (Service.stats relying).Service.suspects

(* A partition shorter than the deadline swallows the beat that names the
   revocation. The first beat after the heal skips an epoch, so the
   relying service reads the tombstones of what it watches there. *)
let test_epoch_gap_after_short_partition () =
  let world, issuer, relying = build ~monitoring:beats () in
  let _, _, base, derived = establish world issuer relying in
  World.run_until world 2.2;
  cut world issuer relying;
  ignore (Service.revoke_certificate issuer base.Oasis_cert.Rmc.id ~reason:"struck off");
  World.run_until world 2.9;
  Alcotest.(check bool) "the announcing beat was swallowed" true (still_active relying derived);
  Alcotest.(check int) "no silence inside the deadline" 0
    (List.length (Service.suspect_roles relying));
  heal world;
  let healed_at = World.now world in
  World.run_until world (healed_at +. beat_period +. notify_latency +. 1e-6);
  Alcotest.(check bool) "the epoch gap collapses the role after the heal" false
    (still_active relying derived);
  Alcotest.(check bool) "for the revocation's reason" true
    (String.ends_with ~suffix:"invalid: struck off" (last_revoke_rule relying));
  Alcotest.(check (float 0.0)) "no missed beat" 0.0 (count world "hb.misses");
  Alcotest.(check int) "no reconciliation" 0 (Service.stats relying).Service.reconciled_revoked

(* The credential was revoked two epochs before the relying service ever
   saw it: a partition hid the tombstone from the offline presentation
   check and from the watch it started. The first beat after the heal has
   the new watch's tombstone read again. *)
let test_late_watch_reads_tombstone () =
  let world = World.create ~seed:1 ~monitoring:beats () in
  let issuer = Service.create world ~name:"issuer" ~policy:"initial base <- env:eq(1, 1);" () in
  let relying =
    Service.create world ~name:"relying" ~config:fault_config ~policy:"derived <- *base@issuer;"
      ()
  in
  let p = Principal.create world ~name:"p" in
  let s = Principal.start_session p in
  let base = World.run_proc world (fun () -> ok (Principal.activate p s issuer ~role:"base" ())) in
  World.run_until world 2.2;
  cut world issuer relying;
  ignore (Service.revoke_certificate issuer base.Oasis_cert.Rmc.id ~reason:"struck off");
  World.run_until world (2.2 +. (2.0 *. beat_period));
  let derived =
    World.run_proc world (fun () -> ok (Principal.activate p s relying ~role:"derived" ()))
  in
  Alcotest.(check bool) "granted offline behind the partition" true
    (still_active relying derived);
  World.run_until world (World.now world +. 0.1);
  heal world;
  World.run_until world (World.now world +. beat_period +. notify_latency +. 1e-6);
  Alcotest.(check bool) "collapsed through the tombstone" false (still_active relying derived);
  Alcotest.(check bool) "for the revocation's reason" true
    (String.ends_with ~suffix:"invalid: struck off" (last_revoke_rule relying));
  Alcotest.(check (float 0.0)) "no missed beat" 0.0 (count world "hb.misses")

(* The change-event counterpart: [a] revokes [base] behind a partition at
   t = 3, and [b] grants [derived] offline at t = 3.2, since the partition
   hides the tombstone from the presentation check and from the watch the
   grant starts. [a] re-sends its latest beat when the partition heals,
   and the beat has the new watch's tombstone read, so the role collapses
   within one delivery latency of the heal. *)
let test_heal_redelivers_tombstone () =
  let world = World.create ~seed:1 () in
  let civ = Civ.create world ~name:"civ" () in
  let config = { Service.default_config with suspect_grace = 5.0 } in
  let a =
    Service.create world ~name:"a" ~config ~policy:"initial base(u) <- appt:member(u)@civ;" ()
  in
  let b = Service.create world ~name:"b" ~config ~policy:"derived(u) <- *base(u)@a;" () in
  let p = Principal.create world ~name:"p" in
  Principal.grant_appointment p
    (Civ.issue civ ~kind:"member"
       ~args:[ Value.Id (Principal.id p) ]
       ~holder:(Principal.id p) ~holder_key:(Principal.longterm_public p) ());
  let s = Principal.start_session p in
  let base = World.run_proc world (fun () -> ok (Principal.activate p s a ~role:"base" ())) in
  World.run_until world 3.0;
  Fault.partition (World.fault world) ~name:"ab" [ Service.id a ] [ Service.id b ];
  ignore (Service.revoke_certificate a base.Oasis_cert.Rmc.id ~reason:"struck off");
  World.run_until world 3.2;
  let derived = World.run_proc world (fun () -> ok (Principal.activate p s b ~role:"derived" ())) in
  World.run_until world 3.3;
  Alcotest.(check bool) "granted behind the partition and still held" true
    (still_active b derived);
  Fault.heal (World.fault world) "ab";
  World.run_until world (3.3 +. notify_latency +. 1e-6);
  Alcotest.(check bool) "collapsed within one delivery latency of the heal" false
    (still_active b derived);
  Alcotest.(check bool) "for the revocation's reason" true
    (String.ends_with ~suffix:"invalid: struck off" (last_revoke_rule b))

(* A callback verdict overtaken by the revocation: the issuer answers at
   t = 2.202 and revokes at 2.2025, before its answer lands at 2.203. The
   grant's new watch reads the tombstone and collapses the role at once,
   not at the issuer's next beat (~2.5). *)
let test_watch_start_reads_tombstone () =
  let world, issuer, relying = build ~monitoring:beats () in
  let p = Principal.create world ~name:"p" in
  let s = Principal.start_session p in
  let base = World.run_proc world (fun () -> ok (Principal.activate p s issuer ~role:"base" ())) in
  World.run_until world 2.2;
  ignore
    (Oasis_sim.Engine.schedule_at (World.engine world) ~at:2.2025 (fun () ->
         ignore (Service.revoke_certificate issuer base.Oasis_cert.Rmc.id ~reason:"struck off")));
  let derived =
    World.run_proc world (fun () -> ok (Principal.activate p s relying ~role:"derived" ()))
  in
  Alcotest.(check bool) "collapsed before the next beat" true
    ((not (still_active relying derived)) && World.now world < 2.25);
  Alcotest.(check bool) "for the revocation's reason" true
    (String.ends_with ~suffix:"invalid: struck off" (last_revoke_rule relying))

(* The issuer revokes and crashes before its next beat, losing the
   revocation it had not beaten yet, and is back inside the deadline. Its
   first beat counts from epoch 1 again: the relying service sees the
   epoch go backwards and reads the tombstone. *)
let test_issuer_restart_epoch_gap () =
  let world, issuer, relying = build ~monitoring:beats () in
  let _, _, base, derived = establish world issuer relying in
  World.run_until world 2.2;
  ignore (Service.revoke_certificate issuer base.Oasis_cert.Rmc.id ~reason:"struck off");
  Service.crash issuer;
  World.run_until world 2.8;
  Alcotest.(check bool) "unannounced while the issuer is down" true
    (still_active relying derived);
  Service.restart issuer;
  World.run_until world (2.8 +. beat_period +. notify_latency +. 1e-6);
  Alcotest.(check bool) "collapsed at the first beat after the restart" false
    (still_active relying derived);
  Alcotest.(check bool) "for the revocation's reason" true
    (String.ends_with ~suffix:"invalid: struck off" (last_revoke_rule relying));
  Alcotest.(check (float 0.0)) "no missed beat" 0.0 (count world "hb.misses")

(* The change-event counterpart: the issuer crashes at t = 1, [base] is
   revoked while it is down, so the revocation's beat reaches nobody, and
   it is back at t = 1.5. With no period, nothing else would ever announce
   the revocation: the restarted issuer re-sends its latest beat, and the
   relying service collapses [derived] one delivery latency later. *)
let test_issuer_restart_resends_beat () =
  let world, issuer, relying = build () in
  let _, _, base, derived = establish world issuer relying in
  World.run_until world 1.0;
  Service.crash issuer;
  ignore (Service.revoke_certificate issuer base.Oasis_cert.Rmc.id ~reason:"struck off");
  World.run_until world 1.5;
  Alcotest.(check bool) "unannounced while the issuer is down" true
    (still_active relying derived);
  Service.restart issuer;
  World.run_until world (1.5 +. notify_latency +. 1e-6);
  Alcotest.(check bool) "collapsed one delivery latency after the restart" false
    (still_active relying derived);
  Alcotest.(check bool) "for the revocation's reason" true
    (String.ends_with ~suffix:"invalid: struck off" (last_revoke_rule relying))

(* Silence is the issuer's, not a credential's: one missed deadline makes
   every dependant on that issuer suspect at once, and with the issuer
   still unreachable each fails closed once the grace runs out. *)
let test_issuer_silence_fails_closed () =
  let world, issuer, relying = build ~monitoring:beats () in
  let derived =
    List.init 3 (fun _ ->
        let _, _, _, derived = establish world issuer relying in
        derived)
  in
  World.run_until world 2.2;
  let cut_at = World.now world in
  cut world issuer relying;
  World.run_until world (cut_at +. beat_deadline +. notify_latency);
  Alcotest.(check int) "one missed deadline for the issuer" 1
    (int_of_float (count world "hb.misses"));
  Alcotest.(check int) "every dependant suspect" 3 (List.length (Service.suspect_roles relying));
  World.run_until world (cut_at +. fault_config.Service.suspect_grace);
  Alcotest.(check bool) "held inside the grace" true
    (List.for_all (still_active relying) derived);
  World.run_until world
    (cut_at +. beat_deadline +. fault_config.Service.suspect_grace +. notify_latency);
  Alcotest.(check bool) "every dependant failed closed" true
    (List.for_all (fun d -> not (still_active relying d)) derived);
  Alcotest.(check bool) "by degradation" true
    (String.starts_with ~prefix:"fail-closed degradation" (last_revoke_rule relying))

(* A lost validation callback makes suspect exactly the active roles
   registered under the unreachable issuer's monitor, in id order: a role
   whose registration a silence dropped and reinstatement re-made is among
   them, a released role and a role resting on another issuer are not. *)
let test_unreachable_suspects_registered_roles () =
  let world = World.create ~seed:3 ~monitoring:beats () in
  let issuer =
    Service.create world ~name:"issuer" ~config:hmac_issuer
      ~policy:"initial base <- env:eq(1, 1);" ()
  in
  let other =
    Service.create world ~name:"other" ~config:hmac_issuer
      ~policy:"initial base <- env:eq(1, 1);" ()
  in
  let relying =
    Service.create world ~name:"relying" ~config:fault_config
      ~policy:"derived <- *base@issuer; elsewhere <- *base@other;" ()
  in
  let activate_via via role =
    let p = Principal.create world ~name:"p" in
    World.run_proc world (fun () ->
        let s = Principal.start_session p in
        ignore (ok (Principal.activate p s via ~role:"base" ()));
        (p, s, ok (Principal.activate p s relying ~role ())))
  in
  let id (_, _, (rmc : Oasis_cert.Rmc.t)) = rmc.Oasis_cert.Rmc.id in
  let reinstated = activate_via issuer "derived" in
  cut world issuer relying;
  World.run_until world (World.now world +. beat_deadline +. 0.5);
  heal world;
  World.run_until world (World.now world +. 1.0);
  Alcotest.(check int) "silence, then reinstatement" 1
    (Service.stats relying).Service.reconciled_reinstated;
  Alcotest.(check int) "no suspect left" 0 (List.length (Service.suspect_roles relying));
  let later = List.init 4 (fun _ -> activate_via issuer "derived") in
  let ((p, s, released) as gone) = activate_via issuer "derived" in
  World.run_proc world (fun () -> ignore (Principal.deactivate p s released));
  let elsewhere = activate_via other "elsewhere" in
  let records () = Oasis_trust.Decision_log.records (Service.decision_log relying) in
  let before = List.length (records ()) in
  cut world issuer relying;
  provoke world issuer relying;
  let suspected =
    List.filteri (fun i _ -> i >= before) (records ())
    |> List.filter_map (fun (r : Oasis_trust.Decision_log.record) ->
           if r.decision = Oasis_trust.Decision_log.Suspect then Some (List.hd r.creds) else None)
  in
  let expected = List.map id (reinstated :: later) in
  let ident = Alcotest.testable Oasis_util.Ident.pp Oasis_util.Ident.equal in
  Alcotest.(check (list ident)) "the issuer's active roles, in id order" expected suspected;
  Alcotest.(check bool) "released role not among them" false (List.mem (id gone) suspected);
  Alcotest.(check bool) "other issuer's role not among them" false
    (List.mem (id elsewhere) suspected)

let test_backoff_deterministic () =
  let p = Backoff.default in
  let delays rng = List.init 6 (fun i -> Backoff.delay p rng ~attempt:(i + 1)) in
  let a = delays (Rng.create 42) and b = delays (Rng.create 42) in
  Alcotest.(check (list (float 1e-12))) "same seed, same schedule" a b;
  List.iteri
    (fun i d ->
      if d < 0.0 then Alcotest.failf "negative delay %g at attempt %d" d (i + 1);
      if d > p.Backoff.cap then Alcotest.failf "delay %g above cap at attempt %d" d (i + 1))
    a;
  (* Without jitter the schedule is exactly capped exponential. *)
  let exact = { p with Backoff.jitter = 0.0 } in
  let rng = Rng.create 1 in
  Alcotest.(check (float 1e-12)) "base" 0.05 (Backoff.delay exact rng ~attempt:1);
  Alcotest.(check (float 1e-12)) "doubled" 0.1 (Backoff.delay exact rng ~attempt:2);
  Alcotest.(check (float 1e-12)) "capped" 1.0 (Backoff.delay exact rng ~attempt:12)

let test_backoff_retry_semantics () =
  let slept = ref [] in
  let sleep d = slept := d :: !slept in
  let calls = ref 0 in
  let retries = ref 0 in
  let fail_twice () =
    incr calls;
    if !calls < 3 then Error "down" else Ok !calls
  in
  let result =
    Backoff.retry Backoff.default (Rng.create 7) ~sleep
      ~on_retry:(fun ~attempt:_ ~delay:_ -> incr retries)
      fail_twice
  in
  Alcotest.(check (result int string)) "first Ok wins" (Ok 3) result;
  Alcotest.(check int) "two retries" 2 !retries;
  Alcotest.(check int) "slept between tries" 2 (List.length !slept);
  (* The legacy fixed policy: n total attempts, no sleeping at all. *)
  let calls = ref 0 in
  let result =
    Backoff.retry (Backoff.fixed 3) (Rng.create 7)
      ~sleep:(fun _ -> Alcotest.fail "fixed policy must not sleep")
      (fun () ->
        incr calls;
        (Error "down" : (unit, string) result))
  in
  Alcotest.(check (result unit string)) "exhaustion returns last error" (Error "down") result;
  Alcotest.(check int) "three attempts" 3 !calls

let suite =
  ( "fault",
    [
      Alcotest.test_case "partition: suspect then reinstate" `Quick
        test_partition_suspect_reinstate;
      Alcotest.test_case "partition: missed revocation re-sent at heal" `Quick
        test_missed_revocation_resent;
      Alcotest.test_case "grace expiry degrades fail-closed" `Quick
        test_grace_expiry_fail_closed;
      Alcotest.test_case "crash/restart reinstates" `Quick test_crash_restart_reinstates;
      Alcotest.test_case "crash misses revocation" `Quick test_crash_misses_revocation;
      Alcotest.test_case "heartbeat silence under partition" `Quick
        test_heartbeat_silence_suspect;
      Alcotest.test_case "beat announces a revocation" `Quick test_beat_announces_revocation;
      Alcotest.test_case "epoch gap after short partition" `Quick
        test_epoch_gap_after_short_partition;
      Alcotest.test_case "late watch reads the tombstone" `Quick test_late_watch_reads_tombstone;
      Alcotest.test_case "watch start reads the tombstone" `Quick test_watch_start_reads_tombstone;
      Alcotest.test_case "heal re-delivers a swallowed tombstone" `Quick
        test_heal_redelivers_tombstone;
      Alcotest.test_case "issuer restart: epoch gap" `Quick test_issuer_restart_epoch_gap;
      Alcotest.test_case "issuer restart re-sends its latest beat" `Quick
        test_issuer_restart_resends_beat;
      Alcotest.test_case "issuer silence fails closed" `Quick test_issuer_silence_fails_closed;
      Alcotest.test_case "concurrent monitors independent" `Quick
        test_concurrent_monitors_independent;
      Alcotest.test_case "unreachable issuer: registered roles suspect" `Quick
        test_unreachable_suspects_registered_roles;
      Alcotest.test_case "backoff deterministic" `Quick test_backoff_deterministic;
      Alcotest.test_case "backoff retry semantics" `Quick test_backoff_retry_semantics;
    ] )
