module Engine = Oasis_sim.Engine
module Obs = Oasis_obs.Obs

type emitter = { mutable running : bool; mutable stop_timer : unit -> unit }

let start_emitter ?src broker engine ~topic ~period ~beat =
  let emitter = { running = true; stop_timer = (fun () -> ()) } in
  let c_beats = Obs.counter (Broker.obs broker) "hb.beats" in
  let timer =
    Engine.every engine ~period (fun () ->
        if emitter.running then begin
          Obs.Counter.inc c_beats;
          Broker.publish ?src broker topic (beat ())
        end;
        emitter.running)
  in
  emitter.stop_timer <- (fun () -> Engine.cancel engine timer);
  emitter

(* Cancelling the recurring timer (not just flagging [running]) is what
   leaves a stopped emitter no live periodic closure. *)
let stop_emitter emitter =
  if emitter.running then begin
    emitter.running <- false;
    emitter.stop_timer ();
    emitter.stop_timer <- (fun () -> ())
  end

type monitor = {
  mutable alive : bool;
  mutable last_beat : float;
  mutable unsub : unit -> unit;
  mutable cancel_pending : unit -> unit;
}

(* Fresh default owner per monitor: sharing one ident across monitors made
   every owner-scoped broker operation (partition filtering, per-owner
   accounting) collide between unrelated watches. *)
let monitor_idents = Oasis_util.Ident.generator "hb-monitor"

let watch ?(on_beat = ignore) ?owner ?deadline broker engine ~topic ~on_miss =
  if Option.fold ~none:false ~some:(fun d -> d <= 0.0) deadline then
    invalid_arg "Heartbeat.watch: deadline must be positive";
  let owner =
    match owner with Some o -> o | None -> Oasis_util.Ident.fresh monitor_idents
  in
  let m =
    {
      alive = true;
      last_beat = Engine.now engine;
      unsub = (fun () -> ());
      cancel_pending = (fun () -> ());
    }
  in
  let subscription =
    Broker.subscribe broker topic ~owner (fun _topic beat ->
        if m.alive then begin
          m.last_beat <- Engine.now engine;
          on_beat beat
        end)
  in
  m.unsub <- (fun () -> Broker.unsubscribe broker subscription);
  (* Re-arm a timer for the earliest instant a miss could be declared. The
     miss test compares last_beat against the snapshot taken when arming —
     never a float subtraction against the deadline, which can disagree with
     the scheduled instant by an ulp and loop at a fixed virtual time. *)
  let rec arm deadline =
    let snapshot = m.last_beat in
    let fire_at = Float.max (snapshot +. deadline) (Engine.now engine) in
    let handle =
      Engine.schedule_at engine ~at:fire_at (fun () ->
          m.cancel_pending <- (fun () -> ());
          if m.alive then
            if m.last_beat = snapshot then begin
              (* No beat since arming: the deadline has truly lapsed. *)
              m.alive <- false;
              m.unsub ();
              let obs = Broker.obs broker in
              Obs.Counter.inc (Obs.counter obs "hb.misses");
              if Obs.tracing obs then Obs.event obs "hb.miss" ~labels:[ ("topic", topic) ];
              on_miss ()
            end
            else arm deadline)
    in
    m.cancel_pending <- (fun () -> Engine.cancel engine handle)
  in
  Option.iter arm deadline;
  m

let cancel_watch m =
  if m.alive then begin
    m.alive <- false;
    m.unsub ();
    m.cancel_pending ();
    m.cancel_pending <- (fun () -> ())
  end
