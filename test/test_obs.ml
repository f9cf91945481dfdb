(* The shared observability layer: registry semantics, sink ordering,
   JSONL round-trips and the null-configuration cost contract. *)

module Obs = Oasis_obs.Obs

let test_counter_identity_and_labels () =
  let obs = Obs.create () in
  let a = Obs.counter obs "hits" ~labels:[ ("svc", "s1"); ("kind", "x") ] in
  let b = Obs.counter obs "hits" ~labels:[ ("kind", "x"); ("svc", "s1") ] in
  Obs.Counter.inc a;
  Obs.Counter.add b 2;
  Alcotest.(check int) "label order is irrelevant" 3 (Obs.Counter.value a);
  let other = Obs.counter obs "hits" ~labels:[ ("svc", "s2"); ("kind", "x") ] in
  Alcotest.(check int) "distinct labels, distinct counter" 0 (Obs.Counter.value other);
  Alcotest.(check bool) "rendered key sorts labels" true
    (List.mem_assoc "hits{kind=x,svc=s1}" (Obs.metric_values obs));
  Alcotest.(check (option (float 1e-9))) "value lookup" (Some 3.0)
    (Obs.value obs "hits{kind=x,svc=s1}");
  Alcotest.(check (option (float 1e-9))) "unknown key" None (Obs.value obs "nope")

let test_kind_mismatch_rejected () =
  let obs = Obs.create () in
  ignore (Obs.counter obs "m");
  (match Obs.gauge obs "m" with
  | _ -> Alcotest.fail "gauge over a counter key accepted"
  | exception Invalid_argument _ -> ());
  match Obs.histogram obs "m" with
  | _ -> Alcotest.fail "histogram over a counter key accepted"
  | exception Invalid_argument _ -> ()

let test_histogram_aggregates_and_expansion () =
  let obs = Obs.create () in
  let h = Obs.histogram obs "lat" ~labels:[ ("op", "solve") ] in
  List.iter (Obs.Histogram.observe h) [ 1.0; 3.0; 2.0 ];
  Alcotest.(check int) "count" 3 (Obs.Histogram.count h);
  Alcotest.(check (float 1e-9)) "sum" 6.0 (Obs.Histogram.sum h);
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Obs.Histogram.mean h);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Obs.Histogram.min h);
  Alcotest.(check (float 1e-9)) "max" 3.0 (Obs.Histogram.max h);
  let keys = List.map fst (Obs.metric_values obs) in
  List.iter
    (fun suffix ->
      let key = Printf.sprintf "lat%s{op=solve}" suffix in
      Alcotest.(check bool) (key ^ " derived") true (List.mem key keys))
    [ ".count"; ".sum"; ".mean"; ".max" ]

let test_sink_ordering () =
  let obs = Obs.create () in
  Alcotest.(check bool) "tracing off initially" false (Obs.tracing obs);
  let log = ref [] in
  Obs.attach obs (fun e -> log := ("a", e.Obs.seq) :: !log);
  Obs.attach obs (fun e -> log := ("b", e.Obs.seq) :: !log);
  Alcotest.(check bool) "tracing on" true (Obs.tracing obs);
  Obs.event obs "one";
  Obs.event obs "two" ~labels:[ ("k", "v") ];
  (match List.rev !log with
  | [ ("a", 1); ("b", 1); ("a", 2); ("b", 2) ] -> ()
  | _ -> Alcotest.fail "sinks not called in attach order with increasing seq");
  Obs.detach_all obs;
  Obs.event obs "three";
  Alcotest.(check int) "no delivery after detach" 4 (List.length !log);
  Alcotest.(check bool) "tracing off again" false (Obs.tracing obs)

let test_span_pairs () =
  let sink, captured = Obs.memory_sink () in
  let obs = Obs.create () in
  Obs.attach obs sink;
  let r =
    Obs.span obs "work" ~labels:[ ("rule", "r1") ] (fun () ->
        Obs.event obs "inner";
        42)
  in
  Alcotest.(check int) "result passes through" 42 r;
  match captured () with
  | [ b; i; e ] ->
      Alcotest.(check bool) "begin first" true (b.Obs.phase = Obs.Begin);
      Alcotest.(check string) "span name" "work" b.Obs.name;
      Alcotest.(check bool) "instant inside" true (i.Obs.phase = Obs.Instant);
      Alcotest.(check bool) "end last" true (e.Obs.phase = Obs.End);
      Alcotest.(check int) "begin/end share the span id" b.Obs.span e.Obs.span;
      Alcotest.(check bool) "span id is nonzero" true (b.Obs.span > 0);
      Alcotest.(check int) "instant has span 0" 0 i.Obs.span;
      Alcotest.(check bool) "end reports wall_ms" true (List.mem_assoc "wall_ms" e.Obs.labels)
  | evs -> Alcotest.failf "expected 3 events, got %d" (List.length evs)

(* [wall_ms] is elapsed wall-clock time, not CPU time: a span that sleeps
   reports the sleep. *)
let test_span_wall_clock () =
  let sink, captured = Obs.memory_sink () in
  let obs = Obs.create () in
  Obs.attach obs sink;
  Obs.span obs "nap" (fun () -> Unix.sleepf 0.02);
  match List.rev (captured ()) with
  | e :: _ ->
      let wall_ms = float_of_string (List.assoc "wall_ms" e.Obs.labels) in
      Alcotest.(check bool) (Printf.sprintf "wall_ms %.3f >= 15" wall_ms) true (wall_ms >= 15.0)
  | [] -> Alcotest.fail "no events"

let test_span_exception_still_ends () =
  let sink, captured = Obs.memory_sink () in
  let obs = Obs.create () in
  Obs.attach obs sink;
  (match Obs.span obs "boom" (fun () -> failwith "bug") with
  | _ -> Alcotest.fail "exception swallowed"
  | exception Failure _ -> ());
  match captured () with
  | [ _; e ] ->
      Alcotest.(check bool) "end emitted on the exception path" true (e.Obs.phase = Obs.End);
      Alcotest.(check bool) "end labelled with the error" true
        (List.mem_assoc "error" e.Obs.labels)
  | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs)

let test_jsonl_roundtrip () =
  let sink, captured = Obs.memory_sink () in
  let obs = Obs.create ~now:(fun () -> 1.25) () in
  Obs.attach obs sink;
  Obs.event obs "net.drop" ~labels:[ ("cause", "link_loss"); ("q", "tricky \"quote\"\\path") ];
  ignore (Obs.span obs "solve.activation" ~labels:[ ("rule", "doctor") ] (fun () -> ()));
  List.iter
    (fun e ->
      let line = Obs.event_to_jsonl e in
      (match Obs.validate_jsonl_line line with
      | Ok () -> ()
      | Error m -> Alcotest.failf "schema-invalid line %s: %s" line m);
      match Obs.event_of_jsonl line with
      | Error m -> Alcotest.failf "unparseable line %s: %s" line m
      | Ok d -> Alcotest.(check bool) ("round-trips: " ^ line) true (d = e))
    (captured ())

let test_jsonl_rejects_malformed () =
  List.iter
    (fun line ->
      match Obs.validate_jsonl_line line with
      | Ok () -> Alcotest.failf "accepted: %s" line
      | Error _ -> ())
    [
      "";
      "not json";
      {|{"seq":0,"ts":1.0,"ph":"I","span":0,"name":"x","labels":{}}|};
      {|{"seq":1,"ts":1.0,"ph":"Q","span":0,"name":"x","labels":{}}|};
      {|{"seq":1,"ts":1.0,"ph":"I","span":0,"name":"","labels":{}}|};
      {|{"seq":1,"ts":1.0,"ph":"I","span":0,"labels":{}}|};
      {|{"seq":1,"ts":1.0,"ph":"I","span":-2,"name":"x","labels":{}}|};
      {|{"seq":1,"ts":1.0,"ph":"I","span":0,"name":"x","labels":{"k":1}}|};
    ]

(* The cost contract (DESIGN.md §10): with no sink attached, a guarded
   event site is one load-and-branch and a counter bump is one field
   update — the loop must not allocate per iteration. The slack absorbs
   one-time noise without masking a per-iteration allocation, which over
   100k iterations would cost at least 200k words. *)
let test_null_config_hot_path_allocates_nothing () =
  let obs = Obs.create () in
  let c = Obs.counter obs "hot.counter" in
  Obs.Counter.inc c;
  let before = Gc.minor_words () in
  for _ = 1 to 100_000 do
    Obs.Counter.inc c;
    if Obs.tracing obs then Obs.event obs "hot.event" ~labels:[ ("k", "v") ]
  done;
  let delta = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "no per-iteration allocation (%.0f minor words)" delta)
    true (delta < 100.0);
  Alcotest.(check int) "counter still counted" 100_001 (Obs.Counter.value c)

let suite =
  ( "obs",
    [
      Alcotest.test_case "counter identity and labels" `Quick test_counter_identity_and_labels;
      Alcotest.test_case "kind mismatch rejected" `Quick test_kind_mismatch_rejected;
      Alcotest.test_case "histogram aggregates" `Quick test_histogram_aggregates_and_expansion;
      Alcotest.test_case "sink ordering" `Quick test_sink_ordering;
      Alcotest.test_case "span pairs" `Quick test_span_pairs;
      Alcotest.test_case "span wall_ms is wall-clock" `Quick test_span_wall_clock;
      Alcotest.test_case "span ends on exception" `Quick test_span_exception_still_ends;
      Alcotest.test_case "jsonl round-trip" `Quick test_jsonl_roundtrip;
      Alcotest.test_case "jsonl rejects malformed" `Quick test_jsonl_rejects_malformed;
      Alcotest.test_case "null config allocates nothing" `Quick
        test_null_config_hot_path_allocates_nothing;
    ] )
