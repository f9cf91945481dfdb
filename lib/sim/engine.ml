module Clock = Oasis_util.Clock

(* Event lifecycle: Pending (in the heap) -> Fired | Tombstone. A cancelled
   pending event becomes a tombstone: its closure is released immediately
   (the thunk slot is the only strong reference) and the heap entry is
   reclaimed either when its fire time arrives or by compaction, whichever
   comes first. Heartbeat monitors re-arm and cancel timers constantly; at
   10^6 RMCs, letting tombstones ride to their fire time grows the heap
   without bound. *)
type event = {
  mutable state : int;  (* 0 = pending, 1 = fired, 2 = tombstone *)
  mutable thunk : unit -> unit;
}

(* A handle outlives the event it points at: recurring timers ({!every})
   retarget it at each re-arm, and [dead] stops a recurrence even when the
   cancel lands while its callback is running. *)
type cancel = { mutable target : event; mutable dead : bool }

let fired_event () = { state = 1; thunk = ignore }

type t = {
  clock : Clock.t;
  queue : event Heap.t;
  mutable seq : int;
  mutable executed : int;
  mutable tombstones : int;
}

(* Compaction below this heap size is churn, not reclamation. *)
let compact_min = 64

let create () =
  {
    clock = Clock.manual ();
    queue = Heap.create ~dummy:(fired_event ()) ();
    seq = 0;
    executed = 0;
    tombstones = 0;
  }

let clock t = t.clock

let now t = Clock.now t.clock

let schedule_event t ~at thunk =
  let event = { state = 0; thunk } in
  Heap.push t.queue ~time:at ~seq:t.seq event;
  t.seq <- t.seq + 1;
  event

let schedule_at t ~at thunk =
  if at < now t then
    invalid_arg (Printf.sprintf "Engine.schedule_at: %g is in the past (now %g)" at (now t));
  { target = schedule_event t ~at thunk; dead = false }

let schedule t ~after thunk =
  if after < 0.0 then invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~at:(now t +. after) thunk

let cancel t handle =
  handle.dead <- true;
  let event = handle.target in
  if event.state = 0 then begin
    event.state <- 2;
    event.thunk <- ignore;
    t.tombstones <- t.tombstones + 1;
    if t.tombstones >= compact_min && 2 * t.tombstones > Heap.size t.queue then begin
      Heap.filter_in_place t.queue (fun e -> e.state <> 2);
      t.tombstones <- 0
    end
  end

let every t ~period f =
  if period <= 0.0 then invalid_arg "Engine.every: period must be positive";
  let handle = { target = fired_event (); dead = false } in
  let rec tick () =
    if (not handle.dead) && f () then
      handle.target <- schedule_event t ~at:(now t +. period) tick
  in
  handle.target <- schedule_event t ~at:(now t +. period) tick;
  handle

let step t =
  if Heap.is_empty t.queue then false
  else begin
    let time = Heap.min_time t.queue in
    let event = Heap.pop_min t.queue in
    Clock.advance_to t.clock time;
    if event.state = 2 then t.tombstones <- t.tombstones - 1
    else begin
      event.state <- 1;
      t.executed <- t.executed + 1;
      let thunk = event.thunk in
      (* A fired event's closure is unreachable from here on even if the
         caller keeps its cancel handle. *)
      event.thunk <- ignore;
      thunk ()
    end;
    true
  end

let run t =
  while step t do
    ()
  done

let run_until t horizon =
  let continue = ref true in
  while !continue do
    match Heap.peek_time t.queue with
    | Some time when time <= horizon -> ignore (step t)
    | _ -> continue := false
  done;
  if horizon > now t then Clock.advance_to t.clock horizon

let pending t = Heap.size t.queue - t.tombstones

let heap_size t = Heap.size t.queue

let events_executed t = t.executed
