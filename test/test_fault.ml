(* Fault injection: partitions, crash/restart, suspect roles, anti-entropy
   reconciliation, and the shared backoff policy. *)

module World = Oasis_core.World
module Service = Oasis_core.Service
module Principal = Oasis_core.Principal
module Protocol = Oasis_core.Protocol
module Fault = Oasis_sim.Fault
module Heartbeat = Oasis_event.Heartbeat
module Backoff = Oasis_util.Backoff
module Rng = Oasis_util.Rng

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

let test_missed_revocation_reconciled () =
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
  World.settle world;
  Alcotest.(check bool) "missed revocation completed" false
    (Service.is_valid_certificate relying derived.Oasis_cert.Rmc.id);
  let stats = Service.stats relying in
  Alcotest.(check int) "reconciled as revoked" 1 stats.Service.reconciled_revoked;
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

let test_concurrent_monitors_independent () =
  (* Regression: every Heartbeat.watch gets its own owner ident. Two
     monitors on one topic must count beats and fire misses independently;
     cancelling one must not disturb the other. *)
  let world = World.create ~seed:3 () in
  let broker = World.broker world and engine = World.engine world in
  let emitter =
    Heartbeat.start_emitter broker engine ~topic:"shared" ~period:0.5
      ~beat:(Protocol.Beat { issuer = World.fresh_service_id world; cert_id = World.fresh_cert_id world })
  in
  let misses = ref 0 in
  let watch () =
    Heartbeat.watch broker engine ~topic:"shared" ~deadline:1.2 ~on_miss:(fun () -> incr misses)
  in
  let m1 = watch () in
  let m2 = watch () in
  World.run_until world 3.0;
  Alcotest.(check int) "beats keep both monitors quiet" 0 !misses;
  Heartbeat.cancel_watch m1;
  Heartbeat.stop_emitter emitter;
  World.run_until world 6.0;
  Alcotest.(check int) "only the live monitor fires" 1 !misses;
  Alcotest.(check bool) "m2 missed, m1 cancelled" true
    (Heartbeat.missed m2 && not (Heartbeat.missed m1))

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
      Alcotest.test_case "partition: missed revocation reconciled" `Quick
        test_missed_revocation_reconciled;
      Alcotest.test_case "grace expiry degrades fail-closed" `Quick
        test_grace_expiry_fail_closed;
      Alcotest.test_case "crash/restart reinstates" `Quick test_crash_restart_reinstates;
      Alcotest.test_case "crash misses revocation" `Quick test_crash_misses_revocation;
      Alcotest.test_case "heartbeat silence under partition" `Quick
        test_heartbeat_silence_suspect;
      Alcotest.test_case "concurrent monitors independent" `Quick
        test_concurrent_monitors_independent;
      Alcotest.test_case "backoff deterministic" `Quick test_backoff_deterministic;
      Alcotest.test_case "backoff retry semantics" `Quick test_backoff_retry_semantics;
    ] )
