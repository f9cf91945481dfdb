(* The open-loop driver. One driver executes every op of a workload back to
   back on the simulator: it advances the virtual clock to the op's due
   time, runs the op's client calls inside one simulated process, and
   times each call twice —

   - on the virtual clock (protocol latency: round trips, notification
     hops), from the op's due time for its first call, so lateness of the
     generator counts against the op, and from the previous reply for the
     rest;
   - on the monotonic wall clock (implementation cost).

   Revocations are triggered from the driver and followed to the collapse
   of every dependent role precomputed for them. Sequential ones are driven
   with [Engine.step] and a cursor over the dependents, so polling costs
   O(1) per step; heartbeat-detected ones overlap other work and are
   collected when a service's revocation counter moves. Their virtual
   collapse times are read back from the services' decision logs and
   measured from the trigger, the span the paper's revocation promise is
   about: a trigger's issuer would not wait behind the single driver's
   earlier calls (generator lateness is reported on its own). Each trigger
   has a class (logout, env, admin, heartbeat), and its samples are kept
   per class as well as pooled.

   Two phases, counted in ops. The first [prefix] ops are not wall-timed:
   caches fill and lazy set-up finishes while virtual latencies and layer
   counts are taken, so those repeat exactly for a seed whatever the
   machine's speed. The next [measured] ops are all wall-timed. On a
   shared machine other tenants change the speed the
   process runs at from second to second, so every wall sample is scaled to
   a reference machine speed by the calibration workload ({!Calib}), read
   every 50 ms of the measured phase: a sample is divided by the median
   reading of the half-second window it fell in, so it is compared with
   readings taken under the same conditions. A wall figure is the
   interquartile mean of the scaled samples. The readings allocate, so they wait for the end of
   the prefix, whose collector counts must repeat exactly. *)

module World = Oasis_core.World
module Service = Oasis_core.Service
module Principal = Oasis_core.Principal
module Protocol = Oasis_core.Protocol
module Engine = Oasis_sim.Engine
module Obs = Oasis_obs.Obs
module Ident = Oasis_util.Ident
module Rmc = Oasis_cert.Rmc
module Dlog = Oasis_trust.Decision_log

type kind = Activate | Invoke | Revoke

let kinds = [ Activate; Invoke; Revoke ]
let kind_name = function Activate -> "activate" | Invoke -> "invoke" | Revoke -> "revoke"

let now_ns () = Monotonic_clock.now ()
let ns_since t0 = Int64.sub (now_ns ()) t0
let us_since t0 = Int64.to_float (ns_since t0) /. 1e3

(* Aborts the rest of an op once a failure has been counted. *)
exception Op_failed

(* When a wall measurement started, and how much untimed work had been done
   by then: untimed work done since is taken out of the measurement. *)
type mark = { ns : int64; untimed : int64 }

type revocation = {
  cls : string;  (** the trigger class *)
  started : float;  (** virtual time the trigger ran: latency and the bound are measured from here *)
  start : mark;
  mutable trigger_us : float;
  mutable remaining : (Service.t * Ident.t) list;  (** the cursor *)
  deps : (Service.t * Ident.t) list;
  timed : bool;
  recorded : bool;  (** in the prefix: its virtual latency is reported *)
}

(* Wall samples in µs, each tagged with the window it fell in. *)
type series = { values : Samples.t; windows : Samples.t }

type t = {
  world : World.t;
  engine : Engine.t;
  services : Service.t list;
  revocation_counters : Obs.Counter.t list;
  prefix : int;
  measured : int;  (** ops after the prefix, all wall-timed *)
  bound : float;  (** revocation deadline in virtual seconds *)
  wall : (string, series) Hashtbl.t;  (** by kind name and {!class_key}, ops after the prefix *)
  window_ops : Samples.t;  (** timed ops per window *)
  calib : series;  (** calibration readings in ns, each tagged with its window *)
  mutable next_reading : float;  (** timed seconds at which the next reading is due *)
  mutable timing_from : int64;  (** when the prefix ended *)
  mutable untimed_before : int64;  (** untimed wall spent before the prefix ended *)
  virt : (string, Samples.t) Hashtbl.t;  (** ms by kind name and {!class_key}, prefix ops *)
  lag : Samples.t;  (** generator lateness in ms, prefix ops *)
  mutable op : int;
  mutable origin : float;  (** due time of the running op's next call; nan once consumed *)
  mutable in_proc : bool;
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;
  mutable timed_ops : int;
  mutable untimed_ns : int64;
  mutable in_untimed : bool;
  mutable deferred : revocation list;
  mutable async : revocation list;
  mutable recorded_revocations : (revocation * float) list;  (** with the observed collapse time *)
  mutable sentinels : int;
  mutable own_rmc_checks : int;  (** presented RMCs a service verified as their issuer, prefix ops *)
  mutable pending_max : int;
  mutable heap_max : int;
}

let create world ~services ~prefix ~measured ~bound =
  let obs = World.obs world in
  {
    world;
    engine = World.engine world;
    services;
    revocation_counters =
      List.map
        (fun s ->
          Obs.counter obs "service.revocations" ~labels:[ ("service", Service.service_name s) ])
        services;
    prefix;
    measured;
    bound;
    wall = Hashtbl.create 8;
    window_ops = Samples.create ();
    calib = { values = Samples.create (); windows = Samples.create () };
    next_reading = 0.0;
    timing_from = 0L;
    untimed_before = 0L;
    virt = Hashtbl.create 8;
    lag = Samples.create ();
    op = 0;
    origin = nan;
    in_proc = false;
    attempted = 0;
    failed = 0;
    failures = [];
    timed_ops = 0;
    untimed_ns = 0L;
    in_untimed = false;
    deferred = [];
    async = [];
    recorded_revocations = [];
    sentinels = 0;
    own_rmc_checks = 0;
    pending_max = 0;
    heap_max = 0;
  }

let timed d = d.op >= d.prefix
let recorded d = d.op < d.prefix

let window_s = 0.5
let reading_every_s = 0.05

(* Wall seconds since the prefix ended, untimed work excluded. *)
let timed_elapsed d =
  Int64.to_float (Int64.sub (ns_since d.timing_from) (Int64.sub d.untimed_ns d.untimed_before)) /. 1e9

let window d = int_of_float (timed_elapsed d /. window_s)

let count_timed_op d =
  d.timed_ops <- d.timed_ops + 1;
  let w = window d in
  while Samples.length d.window_ops <= w do
    Samples.add d.window_ops 0.0
  done;
  d.window_ops.Samples.data.(w) <- d.window_ops.Samples.data.(w) +. 1.0

(* Samples are kept by key: an op kind's name, and "revoke.CLASS" for each
   class of revocation trigger. *)
let class_key cls = "revoke." ^ cls

let find_or_add tbl k make =
  match Hashtbl.find_opt tbl k with
  | Some v -> v
  | None ->
      let v = make () in
      Hashtbl.replace tbl k v;
      v

let wall_of d k = find_or_add d.wall k (fun () -> { values = Samples.create (); windows = Samples.create () })
let virt_of d k = find_or_add d.virt k Samples.create

let record_wall d keys us =
  let w = float_of_int (window d) in
  List.iter
    (fun k ->
      let s = wall_of d k in
      Samples.add s.values us;
      Samples.add s.windows w)
    keys

(* Counts a failure, keeping the first few messages. *)
let note_failure ?(count = 1) d msg =
  d.failed <- d.failed + count;
  if List.length d.failures < 8 then d.failures <- msg :: d.failures

let fail d msg =
  note_failure d msg;
  raise Op_failed

let take_origin d =
  let now = World.now d.world in
  let o = d.origin in
  d.origin <- nan;
  if Float.is_nan o then now else Float.min o now

let mark d = { ns = now_ns (); untimed = d.untimed_ns }

let us_since_mark d m =
  Int64.to_float (Int64.sub (ns_since m.ns) (Int64.sub d.untimed_ns m.untimed)) /. 1e3

(* Work the workload needs but does not measure (restoring the population
   after a trigger, the driver's own bookkeeping): its wall time is
   excluded from every wall figure. *)
let untimed d f =
  if d.in_untimed then f ()
  else begin
    d.in_untimed <- true;
    let t0 = now_ns () in
    Fun.protect f ~finally:(fun () ->
        d.in_untimed <- false;
        d.untimed_ns <- Int64.add d.untimed_ns (ns_since t0))
  end

let revocations_so_far d = List.fold_left (fun acc c -> acc + Obs.Counter.value c) 0 d.revocation_counters

let collapsed r =
  let rec go = function
    | [] -> true
    | (svc, id) :: rest when not (Service.is_valid_certificate svc id) -> go rest
    | remaining ->
        r.remaining <- remaining;
        false
  in
  go r.remaining

let finish d r ~wall_us =
  if r.timed then record_wall d [ kind_name Revoke; class_key r.cls ] wall_us;
  if r.recorded then d.recorded_revocations <- (r, World.now d.world) :: d.recorded_revocations;
  if World.now d.world -. r.started > d.bound then
    note_failure d
      (Printf.sprintf "revocation took %.3f s (bound %.3f s)" (World.now d.world -. r.started) d.bound)

(* One engine event. While heartbeat-detected revocations are outstanding,
   a step that moves a revocation counter is checked against them: the
   step that collapsed a revocation's last dependent is its cost. The
   check looks up every outstanding revocation in large stores, so it is
   untimed: it would otherwise land in whichever call or revocation is
   being timed. *)
let step d =
  match d.async with
  | [] -> Engine.step d.engine
  | _ ->
      let before = revocations_so_far d in
      let t0 = now_ns () in
      let more = Engine.step d.engine in
      if revocations_so_far d <> before then begin
        let step_us = us_since t0 in
        untimed d (fun () ->
            d.async <-
              List.filter
                (fun r ->
                  if collapsed r then begin
                    finish d r ~wall_us:(r.trigger_us +. step_us);
                    false
                  end
                  else true)
                d.async)
      end;
      more

(* Steps until every dependent of [r] is invalid, then records it. *)
let settle d r =
  let rec loop () =
    if not (collapsed r) then
      if World.now d.world -. r.started > d.bound then
        fail d (Printf.sprintf "revocation still alive after %.3f s" d.bound)
      else if step d then loop ()
      else fail d "event queue drained before the revocation collapsed"
  in
  loop ();
  finish d r ~wall_us:(us_since_mark d r.start)

(* Runs [f] as one simulated process and steps the engine until it ends.
   Revocations it triggered are then driven to collapse. *)
let run_op d f =
  let finished = ref false and failed = ref false in
  d.in_proc <- true;
  World.spawn d.world (fun () ->
      (try f () with Op_failed -> failed := true);
      finished := true);
  let rec loop () =
    if not !finished then
      if step d then loop ()
      else begin
        d.in_proc <- false;
        fail d "process did not complete (deadlock or lost message)"
      end
  in
  loop ();
  d.in_proc <- false;
  let deferred = List.rev d.deferred in
  d.deferred <- [];
  List.iter (settle d) deferred;
  if !failed then raise Op_failed

let own_rmcs svc session =
  let me = Service.id svc in
  List.fold_left
    (fun n (r : Rmc.t) -> if Ident.equal r.Rmc.issuer me then n + 1 else n)
    0 (Principal.session_rmcs session)

let span d kind f =
  let obs = World.obs d.world in
  if Obs.tracing obs then Obs.span obs ("bench." ^ kind_name kind) f else f ()

(* One client call the workload expects to be granted. *)
let call d kind ~svc ~session f =
  let own = own_rmcs svc session in
  let origin = take_origin d in
  let m = mark d in
  let result = span d kind f in
  let us = us_since_mark d m in
  d.attempted <- d.attempted + 1;
  match result with
  | Ok v ->
      if timed d then begin
        record_wall d [ kind_name kind ] us;
        count_timed_op d
      end;
      if recorded d then begin
        Samples.add (virt_of d (kind_name kind)) ((World.now d.world -. origin) *. 1e3);
        d.own_rmc_checks <- d.own_rmc_checks + own
      end;
      v
  | Error denial ->
      fail d (Printf.sprintf "%s denied: %s" (kind_name kind) (Protocol.denial_to_string denial))

(* A revocation trigger of class [cls] whose [deps] must all collapse.
   Inside a process the collapse is driven once the process ends; outside,
   at once. With [heartbeat] the collapse is left to the failure detector
   and collected as it happens. The trigger uses up the op's due time: a
   call after it is timed from its own start. *)
let trigger ?(heartbeat = false) d ~cls ~deps f =
  ignore (take_origin d : float);
  let r =
    {
      cls;
      started = World.now d.world;
      start = mark d;
      trigger_us = 0.0;
      remaining = deps;
      deps;
      timed = timed d;
      recorded = recorded d;
    }
  in
  span d Revoke f;
  d.attempted <- d.attempted + 1;
  if r.timed then count_timed_op d;
  if heartbeat then begin
    r.trigger_us <- us_since_mark d r.start;
    d.async <- r :: d.async
  end
  else if d.in_proc then d.deferred <- r :: d.deferred
  else settle d r

(* Advances the virtual clock to [due], stepping event by event (a
   sentinel event marks the due time) so outstanding heartbeat revocations
   are still observed. *)
let advance_to d due =
  if due > World.now d.world then begin
    let reached = ref false in
    ignore (Engine.schedule_at d.engine ~at:due (fun () -> reached := true) : Engine.cancel);
    d.sentinels <- d.sentinels + 1;
    while not !reached do
      ignore (step d : bool)
    done
  end

type op = { due : float; body : t -> unit }

type phase = { wall_s : float; timed_ops : int; ops : int }

(* Takes a calibration reading, outside the timed wall, when one is due. *)
let calibrate d =
  let t = timed_elapsed d in
  if t >= d.next_reading then begin
    d.next_reading <- t +. reading_every_s;
    let w = float_of_int (window d) in
    untimed d (fun () ->
        Samples.add d.calib.values (Calib.sample ());
        Samples.add d.calib.windows w)
  end

(* Runs the prefix and then the measured ops from [next]; [at_prefix] runs
   once the prefix completes, and [at_checkpoint] receives the timed wall
   so far once [checkpoint] ops have run. *)
let run d ~next ?(checkpoint = -1) ?(at_checkpoint = ignore) ~at_prefix () =
  let start_timing () =
    at_prefix ();
    d.timing_from <- now_ns ();
    d.untimed_before <- d.untimed_ns;
    calibrate d
  in
  if d.prefix = 0 then start_timing ();
  let elapsed () = timed_elapsed d in
  let rec loop () =
    let op = next () in
    advance_to d op.due;
    if recorded d then Samples.add d.lag (Float.max 0.0 (World.now d.world -. op.due) *. 1e3);
    d.origin <- op.due;
    (try op.body d with Op_failed -> ());
    d.origin <- nan;
    if recorded d then begin
      d.pending_max <- max d.pending_max (Engine.pending d.engine);
      d.heap_max <- max d.heap_max (Engine.heap_size d.engine)
    end;
    d.op <- d.op + 1;
    if d.op = checkpoint then at_checkpoint (elapsed ());
    if d.op < d.prefix + d.measured then begin
      if d.op = d.prefix then start_timing () else if d.op > d.prefix then calibrate d;
      loop ()
    end
  in
  loop ();
  { wall_s = elapsed (); timed_ops = d.timed_ops; ops = d.op }

(* Steps until every heartbeat revocation has been collected (or has
   overrun its bound, which counts as a failure). *)
let drain d =
  let rec loop () =
    match d.async with
    | [] -> ()
    | rs ->
        let overdue = List.filter (fun r -> World.now d.world -. r.started > d.bound) rs in
        if overdue <> [] then begin
          d.async <- List.filter (fun r -> not (List.memq r overdue)) rs;
          note_failure d ~count:(List.length overdue) "heartbeat revocation never collapsed";
          loop ()
        end
        else if step d then loop ()
        else begin
          note_failure d ~count:(List.length rs) "event queue drained with revocations outstanding";
          d.async <- []
        end
  in
  loop ()

(* Reads every recorded revocation's collapse back from the decision logs:
   the latency is the latest [Revoke] record's [at] among its dependents,
   from the trigger. The driver can only have observed the collapse at
   that instant or later (a logout's last dependent may fall inside the
   logout call itself). *)
let resolve_revocations d =
  let at = Ident.Tbl.create 4096 in
  List.iter
    (fun svc ->
      List.iter
        (fun (r : Dlog.record) ->
          match (r.Dlog.decision, r.Dlog.creds) with
          | Dlog.Revoke, id :: _ -> Ident.Tbl.replace at id r.Dlog.at
          | _ -> ())
        (Dlog.records (Service.decision_log svc)))
    d.services;
  List.iter
    (fun (r, observed) ->
      let last =
        List.fold_left
          (fun acc (_, id) ->
            match Ident.Tbl.find_opt at id with Some t -> Float.max acc t | None -> nan)
          neg_infinity r.deps
      in
      if Float.is_nan last || last > observed then
        note_failure d "decision log disagrees with the observed collapse"
      else
        List.iter
          (fun k -> Samples.add (virt_of d k) ((last -. r.started) *. 1e3))
          [ kind_name Revoke; class_key r.cls ])
    (List.rev d.recorded_revocations)

(* The factor that brings a wall duration measured in this run to the
   reference machine speed, from all of its readings. *)
let speed d = Calib.factor d.calib.values

(* The factor for each window: from its own readings, or, for a window
   without any (a single op can outlast one), from the nearest earlier
   window that has some. *)
let window_speeds d =
  let n = max (Samples.length d.window_ops) (window d + 1) in
  let per = Array.init n (fun _ -> Samples.create ()) in
  for i = 0 to Samples.length d.calib.values - 1 do
    let w = int_of_float d.calib.windows.Samples.data.(i) in
    if w < n then Samples.add per.(w) d.calib.values.Samples.data.(i)
  done;
  let factors = Array.make n (speed d) in
  Array.iteri
    (fun w s ->
      if Samples.length s > 0 then factors.(w) <- Calib.factor s
      else if w > 0 then factors.(w) <- factors.(w - 1))
    per;
  factors

(* A series' samples, each scaled to the reference speed by its window's
   readings. *)
let scaled d k =
  let { values; windows } = wall_of d k in
  let factors = window_speeds d in
  let last = Array.length factors - 1 in
  Samples.of_list
    (List.init (Samples.length values) (fun i ->
         let w = min last (int_of_float windows.Samples.data.(i)) in
         values.Samples.data.(i) *. factors.(w)))

(* A series' typical wall time at the reference speed: the interquartile
   mean of its scaled samples; [nan] without samples. *)
let wall_iqm d k = Samples.iqm (scaled d k)

(* Any percentile of the same samples. *)
let wall_percentile d k q = Samples.percentile (scaled d k) q

let virt_percentile d k q = Samples.percentile (virt_of d k) q

(* A revocation figure stratified by trigger class: [per_class] of each
   class in [mix], weighted by the class's stated share of the workload's
   triggers. Classes without samples drop out and the rest are
   reweighted. A pooled figure would flip between classes from seed to
   seed whenever the classes' costs differ and one class holds about half
   the samples. *)
let by_mix mix per_class =
  let parts =
    List.filter_map
      (fun (cls, w) ->
        let v = per_class (class_key cls) in
        if Float.is_nan v then None else Some (w, v))
      mix
  in
  let total = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 parts in
  if total = 0.0 then nan else List.fold_left (fun acc (w, v) -> acc +. (w *. v)) 0.0 parts /. total

(* Timed ops per second at the reference speed: the median over the run's
   complete windows of each window's rate, scaled by its readings. *)
let ops_per_s d (phase : phase) =
  let complete = min (Samples.length d.window_ops) (int_of_float (phase.wall_s /. window_s)) in
  if complete = 0 then float_of_int phase.timed_ops /. phase.wall_s /. speed d
  else
    let factors = window_speeds d in
    Samples.percentile
      (Samples.of_list
         (List.init complete (fun w -> d.window_ops.Samples.data.(w) /. window_s /. factors.(w))))
      0.5
