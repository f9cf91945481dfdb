(* Property suite for the timer core (DESIGN.md §14): the flat heap and the
   engine's cancel/compaction lifecycle under randomised schedule/cancel
   churn — the workload a million heartbeat monitors generate. *)

module Heap = Oasis_sim.Heap
module Engine = Oasis_sim.Engine
module Rng = Oasis_util.Rng

(* ---------------- Heap properties ---------------- *)

(* The minimum's key and value, removed; [None] when empty. *)
let pop h =
  if Heap.is_empty h then None
  else
    let time = Heap.min_time h in
    Some (time, Heap.pop_min h)

(* Random pushes (with deliberate time collisions) always drain in
   (time, seq) lexicographic order. Each value carries its seq and a
   payload derived from it. *)
let test_heap_pop_ordering () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:100 ~name:"heap drains in (time, seq) order"
       QCheck.(int_range 1 1_000_000)
       (fun seed ->
         let rng = Rng.create seed in
         let h = Heap.create ~dummy:(-1, -1) () in
         let n = 1 + Rng.int rng 300 in
         for seq = 0 to n - 1 do
           (* Few distinct times: ties on seq are the interesting case. *)
           let time = float_of_int (Rng.int rng 8) in
           Heap.push h ~time ~seq (seq, 3 * seq)
         done;
         let last = ref (neg_infinity, -1) in
         for _ = 1 to n do
           match pop h with
           | None -> QCheck.Test.fail_report "heap drained early"
           | Some (time, (seq, value)) ->
               if value <> 3 * seq then QCheck.Test.fail_report "value does not follow seq";
               let key = (time, seq) in
               if key <= !last then
                 QCheck.Test.fail_reportf "out of order: (%g,%d) after (%g,%d)" time seq
                   (fst !last) (snd !last);
               last := key
         done;
         Heap.is_empty h))

(* Words the heap keeps reachable: its arrays and the values in them. *)
let heap_words h = Obj.reachable_words (Obj.repr h)

(* Popped and filtered slots hold the dummy, never a stale value: the heap
   must not retain closures after removal. *)
let test_heap_clears_slots () =
  let h = Heap.create ~dummy:"dummy" () in
  for seq = 0 to 99 do
    Heap.push h ~time:(float_of_int (seq mod 10)) ~seq (Printf.sprintf "v%d" seq)
  done;
  for _ = 1 to 100 do
    ignore (Heap.pop_min h)
  done;
  Alcotest.(check int) "empty" 0 (Heap.size h);
  (* After draining, the backing arrays must have shrunk back to their
     16-slot floor and hold only the dummy (the slots are private, so the
     heap's reachable memory is the visible contract). *)
  Alcotest.(check bool) "capacity shrunk" true (heap_words h <= 64)

let test_heap_shrinks () =
  let h = Heap.create ~dummy:(-1) () in
  for seq = 0 to 9999 do
    Heap.push h ~time:(float_of_int seq) ~seq seq
  done;
  let high = heap_words h in
  for _ = 1 to 9900 do
    ignore (Heap.pop_min h)
  done;
  Alcotest.(check int) "100 left" 100 (Heap.size h);
  Alcotest.(check bool)
    (Printf.sprintf "%d words shrank from %d" (heap_words h) high)
    true
    (heap_words h < high / 8)

let test_heap_filter_in_place () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:50 ~name:"filter keeps order and drops the rest"
       QCheck.(int_range 1 1_000_000)
       (fun seed ->
         let rng = Rng.create seed in
         let h = Heap.create ~dummy:(-1) () in
         let n = 1 + Rng.int rng 200 in
         for seq = 0 to n - 1 do
           Heap.push h ~time:(Rng.float rng 50.0) ~seq seq
         done;
         Heap.filter_in_place h (fun v -> v mod 3 = 0);
         let expected = ref 0 in
         for v = 0 to n - 1 do
           if v mod 3 = 0 then incr expected
         done;
         if Heap.size h <> !expected then
           QCheck.Test.fail_reportf "filter kept %d, expected %d" (Heap.size h) !expected;
         let last = ref neg_infinity in
         let ok = ref true in
         for _ = 1 to !expected do
           match pop h with
           | Some (time, v) ->
               if v mod 3 <> 0 then ok := false;
               if time < !last then ok := false;
               last := time
           | None -> ok := false
         done;
         !ok && Heap.is_empty h))

(* ---------------- Engine properties ---------------- *)

(* A cancelled event never executes, whatever the interleaving of schedules
   and cancels the rng produces. *)
let test_cancel_never_fires () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:100 ~name:"cancel-then-fire never executes"
       QCheck.(int_range 1 1_000_000)
       (fun seed ->
         let rng = Rng.create seed in
         let engine = Engine.create () in
         let n = 50 + Rng.int rng 200 in
         let fired = Array.make n false in
         let handles =
           Array.init n (fun i ->
               Engine.schedule engine ~after:(Rng.float rng 100.0) (fun () -> fired.(i) <- true))
         in
         let cancelled = Array.make n false in
         for i = 0 to n - 1 do
           if Rng.int rng 2 = 0 then begin
             cancelled.(i) <- true;
             Engine.cancel engine handles.(i)
           end
         done;
         Engine.run engine;
         let ok = ref true in
         for i = 0 to n - 1 do
           if cancelled.(i) && fired.(i) then ok := false;
           if (not cancelled.(i)) && not fired.(i) then ok := false
         done;
         !ok))

(* The heap stays O(live timers) under unbounded schedule/cancel churn —
   the tombstone-compaction contract. Without compaction this workload
   (schedule far-future, cancel, repeat: exactly heartbeat re-arm churn)
   grows the heap linearly with total events ever scheduled. *)
let test_heap_bounded_under_churn () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:20 ~name:"heap size O(live) under schedule/cancel churn"
       QCheck.(int_range 1 1_000_000)
       (fun seed ->
         let rng = Rng.create seed in
         let engine = Engine.create () in
         let live = Queue.create () in
         let rounds = 5_000 in
         for _ = 1 to rounds do
           (* Mostly cancel-heavy churn with a bounded live set. *)
           let h =
             Engine.schedule engine ~after:(1000.0 +. Rng.float rng 1000.0) (fun () -> ())
           in
           Queue.push h live;
           if Queue.length live > 64 then Engine.cancel engine (Queue.pop live);
           let bound = (2 * Engine.pending engine) + 128 in
           if Engine.heap_size engine > bound then
             QCheck.Test.fail_reportf "heap %d exceeds bound %d (pending %d)"
               (Engine.heap_size engine) bound (Engine.pending engine)
         done;
         (* Total scheduled: [rounds]; live now: at most 65. The physical
            heap must reflect the latter, not the former. *)
         Engine.pending engine <= 65 && Engine.heap_size engine <= 2 * 65 + 128))

(* A cancel storm (mass decommission) leaves pending-entry count O(live
   timers), not O(total scheduled) — the acceptance assertion, engine-level. *)
let test_cancel_storm_compacts () =
  let engine = Engine.create () in
  let n = 100_000 in
  let handles =
    Array.init n (fun i ->
        Engine.schedule engine ~after:(float_of_int (i + 1)) (fun () -> ()))
  in
  (* Keep 1 in 100; cancel the rest in one storm. *)
  let survivors = ref 0 in
  Array.iteri
    (fun i h -> if i mod 100 = 0 then incr survivors else Engine.cancel engine h)
    handles;
  Alcotest.(check int) "pending = survivors" !survivors (Engine.pending engine);
  Alcotest.(check bool)
    (Printf.sprintf "heap %d vs live %d" (Engine.heap_size engine) !survivors)
    true
    (Engine.heap_size engine <= (2 * !survivors) + 128);
  Engine.run engine;
  Alcotest.(check int) "survivors all fired" !survivors (Engine.events_executed engine)

(* [every] under random cancel points: ticks recorded before the cancel
   instant only, and the engine fully drains (no immortal periodic). *)
let test_every_stops_after_cancel () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:100 ~name:"every stops after cancel"
       QCheck.(pair (int_range 1 1_000_000) (int_range 1 40))
       (fun (seed, cancel_after) ->
         let rng = Rng.create seed in
         let engine = Engine.create () in
         let period = 0.5 +. Rng.float rng 2.0 in
         let ticks = ref 0 in
         let timer = Engine.every engine ~period (fun () -> incr ticks; true) in
         (* Cancel at a half-period offset so the cancel instant never ties
            with a tick: ties resolve by seq, where the (earlier-scheduled)
            cancel wins and would tombstone the tied tick. *)
         let cancel_at = (float_of_int cancel_after -. 0.5) *. period in
         ignore (Engine.schedule_at engine ~at:cancel_at (fun () -> Engine.cancel engine timer));
         Engine.run engine;
         (* Without the cancel the run would never terminate; reaching here
            with the expected tick count is the property. *)
         let expected = cancel_after - 1 in
         if !ticks <> expected then
           QCheck.Test.fail_reportf "ticks %d, expected %d (period %g, cancel at %g)" !ticks
             expected period cancel_at;
         Engine.pending engine = 0))

let suite =
  ( "engine-properties",
    [
      Alcotest.test_case "heap pop ordering (qcheck)" `Quick test_heap_pop_ordering;
      Alcotest.test_case "heap clears popped slots" `Quick test_heap_clears_slots;
      Alcotest.test_case "heap shrinks" `Quick test_heap_shrinks;
      Alcotest.test_case "heap filter_in_place (qcheck)" `Quick test_heap_filter_in_place;
      Alcotest.test_case "cancel never fires (qcheck)" `Quick test_cancel_never_fires;
      Alcotest.test_case "heap bounded under churn (qcheck)" `Quick test_heap_bounded_under_churn;
      Alcotest.test_case "cancel storm compacts" `Quick test_cancel_storm_compacts;
      Alcotest.test_case "every stops after cancel (qcheck)" `Quick test_every_stops_after_cancel;
    ] )
