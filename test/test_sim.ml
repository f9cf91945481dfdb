(* The discrete-event engine: heap, scheduling, processes. *)

module Heap = Oasis_sim.Heap
module Engine = Oasis_sim.Engine
module Proc = Oasis_sim.Proc
module Rng = Oasis_util.Rng

(* ---------------- Heap ---------------- *)

(* The minimum's key and value, removed; [None] when empty. *)
let pop h =
  if Heap.is_empty h then None
  else
    let time = Heap.min_time h in
    Some (time, Heap.pop_min h)

let test_heap_orders_by_time () =
  let h = Heap.create ~dummy:(-1) () in
  let rng = Rng.create 1 in
  for i = 0 to 199 do
    Heap.push h ~time:(Rng.float rng 100.0) ~seq:i i
  done;
  let rec drain last acc =
    match pop h with
    | None -> acc
    | Some (t, _) ->
        if t < last then Alcotest.fail "heap out of order";
        drain t (acc + 1)
  in
  Alcotest.(check int) "drained all" 200 (drain neg_infinity 0)

(* Each value carries its seq and a payload derived from it. *)
let test_heap_ties_by_seq () =
  let h = Heap.create ~dummy:(-1, "") () in
  for i = 0 to 9 do
    Heap.push h ~time:1.0 ~seq:i (i, Printf.sprintf "v%d" i)
  done;
  for expected = 0 to 9 do
    match pop h with
    | Some (_, (seq, v)) ->
        Alcotest.(check int) "seq order" expected seq;
        Alcotest.(check string) "value follows" (Printf.sprintf "v%d" expected) v
    | None -> Alcotest.fail "heap empty early"
  done

let test_heap_empty () =
  let h = Heap.create ~dummy:() () in
  Alcotest.(check bool) "is_empty" true (Heap.is_empty h);
  Alcotest.(check bool) "pop_min raises" true
    (match Heap.pop_min h with () -> false | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "peek none" true (Heap.peek_time h = None);
  Heap.push h ~time:5.0 ~seq:0 ();
  Alcotest.(check (option (float 1e-9))) "peek" (Some 5.0) (Heap.peek_time h);
  Alcotest.(check int) "size" 1 (Heap.size h)

(* ---------------- Engine ---------------- *)

let test_engine_ordering () =
  let engine = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule engine ~after:3.0 (fun () -> log := 3 :: !log));
  ignore (Engine.schedule engine ~after:1.0 (fun () -> log := 1 :: !log));
  ignore (Engine.schedule engine ~after:2.0 (fun () -> log := 2 :: !log));
  Engine.run engine;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log);
  Alcotest.(check (float 1e-9)) "clock at last event" 3.0 (Engine.now engine)

let test_engine_same_time_fifo () =
  let engine = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Engine.schedule engine ~after:1.0 (fun () -> log := i :: !log))
  done;
  Engine.run engine;
  Alcotest.(check (list int)) "fifo at same instant" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_engine_cancel () =
  let engine = Engine.create () in
  let fired = ref false in
  let cancel = Engine.schedule engine ~after:1.0 (fun () -> fired := true) in
  Engine.cancel engine cancel;
  Engine.run engine;
  Alcotest.(check bool) "cancelled" false !fired

let test_engine_nested_scheduling () =
  let engine = Engine.create () in
  let log = ref [] in
  ignore
    (Engine.schedule engine ~after:1.0 (fun () ->
         log := "a" :: !log;
         ignore (Engine.schedule engine ~after:1.0 (fun () -> log := "b" :: !log))));
  Engine.run engine;
  Alcotest.(check (list string)) "nested" [ "a"; "b" ] (List.rev !log);
  Alcotest.(check (float 1e-9)) "time" 2.0 (Engine.now engine)

let test_engine_negative_delay_raises () =
  let engine = Engine.create () in
  Alcotest.check_raises "negative" (Invalid_argument "Engine.schedule: negative delay") (fun () ->
      ignore (Engine.schedule engine ~after:(-1.0) (fun () -> ())))

let test_engine_run_until () =
  let engine = Engine.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore (Engine.schedule engine ~after:(float_of_int i) (fun () -> incr count))
  done;
  Engine.run_until engine 5.0;
  Alcotest.(check int) "five fired" 5 !count;
  Alcotest.(check (float 1e-9)) "clock at horizon" 5.0 (Engine.now engine);
  Engine.run engine;
  Alcotest.(check int) "rest fired" 10 !count

let test_engine_run_until_advances_idle_clock () =
  let engine = Engine.create () in
  Engine.run_until engine 42.0;
  Alcotest.(check (float 1e-9)) "advances without events" 42.0 (Engine.now engine)

let test_engine_every () =
  let engine = Engine.create () in
  let count = ref 0 in
  ignore
    (Engine.every engine ~period:1.0 (fun () ->
         incr count;
         !count < 5));
  Engine.run engine;
  Alcotest.(check int) "stopped at false" 5 !count

let test_engine_every_cancel () =
  let engine = Engine.create () in
  let count = ref 0 in
  let timer =
    Engine.every engine ~period:1.0 (fun () ->
        incr count;
        true)
  in
  ignore (Engine.schedule engine ~after:3.5 (fun () -> Engine.cancel engine timer));
  Engine.run engine;
  Alcotest.(check int) "three ticks then cancelled" 3 !count

let test_engine_every_cancel_from_callback () =
  let engine = Engine.create () in
  let count = ref 0 in
  let handle = ref None in
  let timer =
    Engine.every engine ~period:1.0 (fun () ->
        incr count;
        if !count = 2 then Engine.cancel engine (Option.get !handle);
        true)
  in
  handle := Some timer;
  Engine.run engine;
  Alcotest.(check int) "stops when cancelled from within" 2 !count

let test_engine_stats () =
  let engine = Engine.create () in
  ignore (Engine.schedule engine ~after:1.0 (fun () -> ()));
  ignore (Engine.schedule engine ~after:2.0 (fun () -> ()));
  Alcotest.(check int) "pending" 2 (Engine.pending engine);
  Engine.run engine;
  Alcotest.(check int) "executed" 2 (Engine.events_executed engine)

(* ---------------- Proc ---------------- *)

let test_proc_sleep_ordering () =
  let engine = Engine.create () in
  let log = ref [] in
  Proc.spawn engine (fun () ->
      Proc.sleep 2.0;
      log := "slow" :: !log);
  Proc.spawn engine (fun () ->
      Proc.sleep 1.0;
      log := "fast" :: !log);
  Engine.run engine;
  Alcotest.(check (list string)) "order" [ "fast"; "slow" ] (List.rev !log)

let test_proc_ivar_fill_then_read () =
  let engine = Engine.create () in
  let iv = Proc.ivar () in
  Proc.fill iv 42;
  let got = ref 0 in
  Proc.spawn engine (fun () -> got := Proc.read iv);
  Engine.run engine;
  Alcotest.(check int) "read filled" 42 !got

let test_proc_ivar_read_then_fill () =
  let engine = Engine.create () in
  let iv = Proc.ivar () in
  let got = ref 0 in
  Proc.spawn engine (fun () -> got := Proc.read iv);
  ignore (Engine.schedule engine ~after:1.0 (fun () -> Proc.fill iv 7));
  Engine.run engine;
  Alcotest.(check int) "read woke" 7 !got

let test_proc_ivar_multiple_readers () =
  let engine = Engine.create () in
  let iv = Proc.ivar () in
  let sum = ref 0 in
  for _ = 1 to 3 do
    Proc.spawn engine (fun () -> sum := !sum + Proc.read iv)
  done;
  ignore (Engine.schedule engine ~after:1.0 (fun () -> Proc.fill iv 5));
  Engine.run engine;
  Alcotest.(check int) "all readers woke" 15 !sum

let test_proc_double_fill_raises () =
  let iv = Proc.ivar () in
  Proc.fill iv 1;
  Alcotest.check_raises "double fill" (Invalid_argument "Proc.fill: ivar already filled")
    (fun () -> Proc.fill iv 2)

let test_proc_poll () =
  let iv = Proc.ivar () in
  Alcotest.(check (option int)) "empty" None (Proc.poll iv);
  Proc.fill iv 3;
  Alcotest.(check (option int)) "full" (Some 3) (Proc.poll iv)

let test_proc_nested_spawn () =
  let engine = Engine.create () in
  let log = ref [] in
  Proc.spawn engine (fun () ->
      Proc.sleep 1.0;
      Proc.spawn engine (fun () ->
          Proc.sleep 1.0;
          log := "child" :: !log);
      log := "parent" :: !log);
  Engine.run engine;
  Alcotest.(check (list string)) "both ran" [ "parent"; "child" ] (List.rev !log)

let suite =
  ( "sim",
    [
      Alcotest.test_case "heap time order" `Quick test_heap_orders_by_time;
      Alcotest.test_case "heap tie-break" `Quick test_heap_ties_by_seq;
      Alcotest.test_case "heap empty" `Quick test_heap_empty;
      Alcotest.test_case "engine ordering" `Quick test_engine_ordering;
      Alcotest.test_case "engine same-time fifo" `Quick test_engine_same_time_fifo;
      Alcotest.test_case "engine cancel" `Quick test_engine_cancel;
      Alcotest.test_case "engine nested" `Quick test_engine_nested_scheduling;
      Alcotest.test_case "engine negative delay" `Quick test_engine_negative_delay_raises;
      Alcotest.test_case "engine run_until" `Quick test_engine_run_until;
      Alcotest.test_case "engine run_until idle" `Quick test_engine_run_until_advances_idle_clock;
      Alcotest.test_case "engine every" `Quick test_engine_every;
      Alcotest.test_case "engine every cancel" `Quick test_engine_every_cancel;
      Alcotest.test_case "engine every cancel inside" `Quick test_engine_every_cancel_from_callback;
      Alcotest.test_case "engine stats" `Quick test_engine_stats;
      Alcotest.test_case "proc sleep order" `Quick test_proc_sleep_ordering;
      Alcotest.test_case "ivar fill then read" `Quick test_proc_ivar_fill_then_read;
      Alcotest.test_case "ivar read then fill" `Quick test_proc_ivar_read_then_fill;
      Alcotest.test_case "ivar multiple readers" `Quick test_proc_ivar_multiple_readers;
      Alcotest.test_case "ivar double fill" `Quick test_proc_double_fill_raises;
      Alcotest.test_case "ivar poll" `Quick test_proc_poll;
      Alcotest.test_case "nested spawn" `Quick test_proc_nested_spawn;
    ] )
