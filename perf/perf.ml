(* The repository benchmark. One process runs one workload:

     perf.exe --workload grant|revoke|metropolis|scale --seed N
              [--seconds S] [--trace 0|1 | --traced] [--smoke] [-o FILE]
     perf.exe --self-test

   It builds the workload's world several times (set-up time is the
   median), drives the last build with a seeded open-loop schedule for
   [--seconds] of wall time, checks the outputs, and prints every metric as
   "name value unit". The last line of standard output is one JSON object
   {correct, attempted, failed, metrics}: the end-to-end metrics of
   BENCHMARK.json untraced, or its per-layer metrics with --trace 1 (the
   traced run, which also prints the per-layer cost ledger). The exit code
   is non-zero when a correctness check fails. See perf/README.md. *)

module World = Oasis_core.World
module Service = Oasis_core.Service
module Civ = Oasis_domain.Civ
module Engine = Oasis_sim.Engine
module Obs = Oasis_obs.Obs
module Dlog = Oasis_trust.Decision_log
module Ident = Oasis_util.Ident
module Value = Oasis_util.Value

let workloads = [ Grant.workload; Revoke.workload; Metropolis.workload; Scale.workload ]

(* ------------------------------------------------------------------ *)
(* Metrics                                                            *)
(* ------------------------------------------------------------------ *)

(* [E2e]: gated end-to-end metrics, the untraced result line. [Layer]:
   the traced result line. [Info]: printed and written with -o only. *)
type group = E2e | Layer | Info

type metric = { name : string; value : float; unit_ : string; group : group }

(* The end-to-end metrics BENCHMARK.json gates. The activation and
   invocation virtual p99s are per-layer diagnostics: they are set by
   queueing behind earlier ops and swing ~10 % from seed to seed. *)
let gated =
  [
    "setup_s";
    "ops_per_s";
    "peak_rss_mb";
    "activate_wall_us_iqm";
    "invoke_wall_us_iqm";
    "revoke_wall_us_iqm";
    "activate_virt_ms_p50";
    "invoke_virt_ms_p50";
    "revoke_virt_ms_p50";
    "revoke_virt_ms_p99";
    "revoke_virt_ms_max";
  ]

(* ------------------------------------------------------------------ *)
(* Snapshots of the counters, taken at phase boundaries               *)
(* ------------------------------------------------------------------ *)

type snap = {
  reg : (string * float) list;
  gc : Gc.stat;
  events : int;
  sentinels : int;
  attempted : int;
  own_checks : int;
  env_changes : int;
  env_useful : int;
  civ_served : int;
  virt : float;
}

let snapshot (inst : Common.instance) (d : Driver.t) =
  {
    reg = Obs.metric_values (World.obs inst.Common.world);
    gc = Gc.quick_stat ();
    events = Engine.events_executed (World.engine inst.Common.world);
    sentinels = d.Driver.sentinels;
    attempted = d.Driver.attempted;
    own_checks = d.Driver.own_rmc_checks;
    env_changes = inst.Common.env.Common.changes;
    env_useful = inst.Common.env.Common.useful;
    civ_served =
      List.fold_left
        (fun acc c -> acc + Array.fold_left ( + ) 0 (Civ.stats c).Civ.validations_served)
        0 inst.Common.civs;
    virt = World.now inst.Common.world;
  }

let has_prefix p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p

let contains sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* Sum of a metric over all its label sets, optionally only those whose
   rendered key mentions [label] (e.g. "kind=activation"). *)
let reg_sum ?label snap name =
  List.fold_left
    (fun acc (k, v) ->
      if (k = name || has_prefix (name ^ "{") k) && match label with Some l -> contains l k | None -> true
      then acc +. v
      else acc)
    0.0 snap.reg

let ratio a b = if b = 0.0 then 0.0 else a /. b

let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> nan
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> nan
        | line when has_prefix "VmHWM:" line ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
                float_of_int kb /. 1024.0)
        | _ -> scan ()
      in
      let v = scan () in
      close_in ic;
      v

(* ------------------------------------------------------------------ *)
(* One run                                                            *)
(* ------------------------------------------------------------------ *)

type options = {
  workload : Common.t;
  seed : int;
  seconds : float;
  traced : bool;
  smoke : bool;
  out : string option;
}

type result = {
  metrics : metric list;
  attempted : int;
  failed : int;
  failures : string list;
  sizes : (string * float) list;
}

(* Builds the world at least [reps] times, and more (up to nine) while
   the builds so far took under two seconds, so a cheap set-up is not one
   burst of noise; returns the last build and the median build time at
   the reference machine speed (the calibration loop is read around each
   build). Earlier builds are dropped and the heap compacted before the
   next, so each starts from the same state. [between] sees each earlier
   build before it is dropped. *)
let setups opts ~reps ~between =
  let rec go i times elapsed =
    Gc.compact ();
    let read () = List.init 3 (fun _ -> Calib.sample ()) in
    let before = read () in
    let t0 = Driver.now_ns () in
    let inst = opts.workload.Common.build ~seed:opts.seed ~smoke:opts.smoke in
    let t = Int64.to_float (Driver.ns_since t0) /. 1e9 in
    let speed = Calib.factor (Samples.of_list (before @ read ())) in
    let times = (t *. speed) :: times and elapsed = elapsed +. t in
    if i >= reps && (i >= 9 || elapsed >= 2.0) then (inst, Samples.median times)
    else begin
      between inst;
      go (i + 1) times elapsed
    end
  in
  go 1 [] 0.0

(* The measured phase: as many ops as the prefix in a smoke run, else
   [--seconds] worth at the workload's rate. Every run at the same
   [--seconds] measures the same number of ops. *)
let measured opts =
  let w = opts.workload in
  if opts.smoke then w.Common.prefix ~smoke:true
  else int_of_float (Float.ceil (opts.seconds *. w.Common.ops_per_s))

let driver ?(measured = measured) opts (inst : Common.instance) =
  Driver.create inst.Common.world ~services:inst.Common.services
    ~prefix:(opts.workload.Common.prefix ~smoke:opts.smoke)
    ~measured:(measured opts) ~bound:inst.Common.bound

(* End-of-run checks: every decision log verifies from genesis, and after
   quiescence the active roles are exactly the generator's model. *)
let end_checks (inst : Common.instance) (d : Driver.t) =
  Driver.drain d;
  World.settle inst.Common.world;
  Driver.resolve_revocations d;
  let problems = ref (inst.Common.check ()) in
  List.iter
    (fun svc ->
      match Dlog.verify (Service.decision_log svc) with
      | Ok _ -> ()
      | Error (seq, why) ->
          problems :=
            Printf.sprintf "%s decision log fails at %d: %s" (Service.service_name svc) seq why :: !problems)
    inst.Common.services;
  let key (svc, role, args, p) =
    Printf.sprintf "%s %s(%s) %s" svc role
      (String.concat "," (List.map Value.to_string args))
      (Ident.to_string p)
  in
  let actual =
    List.concat_map
      (fun svc ->
        List.map
          (fun (_, role, args, p) -> key (Service.service_name svc, role, args, p))
          (Service.active_roles svc))
      inst.Common.services
    |> List.sort compare
  in
  let expected = List.map key (inst.Common.expected_active ()) |> List.sort compare in
  if actual <> expected then begin
    let missing = List.filter (fun k -> not (List.mem k actual)) expected in
    let extra = List.filter (fun k -> not (List.mem k expected)) actual in
    problems :=
      Printf.sprintf "active roles differ from the model: %d missing (e.g. %s), %d extra (e.g. %s)"
        (List.length missing)
        (match missing with k :: _ -> k | [] -> "-")
        (List.length extra)
        (match extra with k :: _ -> k | [] -> "-")
      :: !problems
  end;
  !problems

(* The per-kind latencies. Typical revocation latencies are stratified by
   trigger class ({!Driver.by_mix}); each class's own figures are printed
   too. *)
let percentile_metrics (w : Common.t) (d : Driver.t) =
  let open Driver in
  let typical k f = if k = Revoke then by_mix w.Common.triggers f else f (kind_name k) in
  List.concat_map
    (fun k ->
      let n = kind_name k in
      [
        (n ^ "_wall_us_iqm", typical k (wall_iqm d), "us");
        (n ^ "_wall_us_p99", wall_percentile d n 0.99, "us");
        (n ^ "_virt_ms_p50", typical k (fun key -> virt_percentile d key 0.5), "ms");
        (n ^ "_virt_ms_p99", virt_percentile d n 0.99, "ms");
      ])
    kinds
  @ [ ("revoke_virt_ms_max", Samples.maximum (virt_of d (kind_name Revoke)), "ms") ]

let class_metrics (w : Common.t) (d : Driver.t) =
  List.concat_map
    (fun (cls, _) ->
      let key = Driver.class_key cls in
      [
        ("revoke_wall_us_iqm." ^ cls, Driver.wall_iqm d key, "us");
        ("revoke_virt_ms_p50." ^ cls, Driver.virt_percentile d key 0.5, "ms");
      ])
    w.Common.triggers

let run opts =
  let w = opts.workload in
  let prefix = w.Common.prefix ~smoke:opts.smoke in
  (* The traced run first drives an untraced build over a fixed stretch of
     ops after the prefix, so the traced run's cost on the same stretch
     gives the overhead. *)
  let stretch = min (measured opts) 500 in
  let untraced_stretch_s = ref nan in
  let between inst =
    if opts.traced && Float.is_nan !untraced_stretch_s then begin
      let d = driver ~measured:(fun _ -> stretch) opts inst in
      let ph = Driver.run d ~next:inst.Common.next ~at_prefix:ignore () in
      untraced_stretch_s := ph.Driver.wall_s
    end
  in
  let inst, setup_s = setups opts ~reps:(if opts.traced then 2 else 3) ~between in
  Gc.compact ();
  let d = driver opts inst in
  let rss = ref nan and valid = ref 0 in
  let ledger = Ledger.create_sink () in
  let s0 = snapshot inst d in
  let s_prefix = ref s0 in
  let traced_stretch_s = ref nan in
  let phase =
    Driver.run d ~next:inst.Common.next ~checkpoint:(prefix + stretch)
      ~at_checkpoint:(fun s -> traced_stretch_s := s)
      ~at_prefix:(fun () ->
        s_prefix := snapshot inst d;
        rss := peak_rss_mb ();
        valid :=
          List.fold_left (fun acc s -> acc + List.length (Service.active_roles s)) 0 inst.Common.services;
        if opts.traced then Obs.attach (World.obs inst.Common.world) (Ledger.sink ledger))
      ()
  in
  let s_end = snapshot inst d in
  Obs.detach_all (World.obs inst.Common.world);
  let problems = end_checks inst d in
  let speed = Driver.speed d in
  let ops = float_of_int (!s_prefix.attempted - s0.attempted) in
  let dp name = reg_sum !s_prefix name -. reg_sum s0 name in
  let dpl name label = reg_sum ~label !s_prefix name -. reg_sum ~label s0 name in
  let per_op x = ratio x ops in
  let dw name = reg_sum s_end name -. reg_sum !s_prefix name in
  let changes = float_of_int (!s_prefix.env_changes - s0.env_changes) in
  let rechecks = dp "service.env_rechecks" in
  let hits = dp "vcache.hits" and misses = dp "vcache.misses" in
  let solve_count kind = dpl "solve.steps.count" ("kind=" ^ kind) in
  let solve_steps kind = dpl "solve.steps.sum" ("kind=" ^ kind) in
  let gc_words f = f !s_prefix.gc -. f s0.gc in
  let recorded k = Samples.length (Driver.virt_of d (Driver.kind_name k)) in
  let activations = recorded Driver.Activate and invocations = recorded Driver.Invoke in
  let word_mb = float_of_int (Sys.word_size / 8) /. 1048576.0 in
  let counts =
    [
      ("crypto.verify_per_op", per_op (dp "service.offline_validations"), "count");
      ("crypto.own_verify_per_op", per_op (float_of_int (!s_prefix.own_checks - s0.own_checks)), "count");
      ("crypto.sign_per_op", per_op (dp "service.activations_granted" +. dp "civ.issues"), "count");
      ("solve.calls_per_op.activate", ratio (solve_count "activation") (float_of_int activations), "count");
      ("solve.calls_per_op.invoke", ratio (solve_count "authorization") (float_of_int invocations), "count");
      ("solve.steps_per_call.activate", ratio (solve_steps "activation") (solve_count "activation"), "count");
      ( "solve.steps_per_call.invoke",
        ratio (solve_steps "authorization") (solve_count "authorization"),
        "count" );
      ("env.changes", changes, "count");
      ("env.rechecks_per_change", ratio rechecks changes, "count");
      ( "env.recheck_useful_ratio",
        ratio (float_of_int (!s_prefix.env_useful - s0.env_useful)) rechecks,
        "ratio" );
      ("broker.published_per_op", per_op (dp "broker.published"), "count");
      ("broker.fanout", ratio (dp "broker.notified") (dp "broker.published"), "count");
      ("broker.suppressed", dp "broker.suppressed", "count");
      ("hb.beats_per_virt_s", ratio (dp "hb.beats") (!s_prefix.virt -. s0.virt), "1/s");
      ("hb.misses", dp "hb.misses", "count");
      ("net.msgs_per_op", per_op (dp "net.sent"), "count");
      ("net.rpcs_per_op", per_op (dp "net.rpcs"), "count");
      ("net.bytes_per_op", per_op (dp "net.bytes_sent"), "bytes");
      ("net.dropped", dp "net.dropped", "count");
      ("vcache.hits", hits, "count");
      ("vcache.misses", misses, "count");
      ("vcache.negative_hits", dp "vcache.negative_hits", "count");
      ("vcache.hit_ratio", ratio hits (hits +. misses), "ratio");
      ("civ.validations_served", float_of_int (!s_prefix.civ_served - s0.civ_served), "count");
      ( "cred_store.records",
        reg_sum !s_prefix "service.activations_granted" +. reg_sum !s_prefix "civ.issues",
        "count" );
      ("cred_store.valid", float_of_int !valid, "count");
      ("dlog.records_per_op.grant", per_op (dpl "audit.records" "decision=grant"), "count");
      ("dlog.records_per_op.deny", per_op (dpl "audit.records" "decision=deny"), "count");
      ("dlog.records_per_op.revoke", per_op (dpl "audit.records" "decision=revoke"), "count");
      ( "engine.events_per_op",
        per_op (float_of_int (!s_prefix.events - s0.events - (!s_prefix.sentinels - s0.sentinels))),
        "count" );
      ( "engine.events_per_s",
        ratio
          (float_of_int (s_end.events - !s_prefix.events - (s_end.sentinels - !s_prefix.sentinels)))
          (phase.Driver.wall_s *. speed),
        "1/s" );
      ("engine.pending_max", float_of_int d.Driver.pending_max, "count");
      ("engine.heap_size_max", float_of_int d.Driver.heap_max, "count");
      ("gc.minor_words_per_op", per_op (gc_words (fun g -> g.Gc.minor_words)), "words");
      ("gc.promoted_words_per_op", per_op (gc_words (fun g -> g.Gc.promoted_words)), "words");
      ( "gc.major_collections",
        float_of_int (!s_prefix.gc.Gc.major_collections - s0.gc.Gc.major_collections),
        "count" );
      ("gc.heap_mb_peak", float_of_int !s_prefix.gc.Gc.top_heap_words *. word_mb, "MB");
      ("trust.certificates_filed", dp "trust.certificates_filed", "count");
      ("trust.notify_suppressed", dp "trust.notify_suppressed", "count");
      ("trust.flaps_suppressed", dp "trust.flaps_suppressed", "count");
      ("service.activations_denied", dp "service.activations_denied", "count");
      ("service.callbacks_out", dp "service.callbacks_out", "count");
      ("service.cascade_deactivations", dp "service.cascade_deactivations", "count");
      ("service.suspects", dp "svc.suspect", "count");
      ("gen.lag_virt_ms_p99", Samples.percentile d.Driver.lag 0.99, "ms");
    ]
  in
  let ledger_metrics =
    if not opts.traced then []
    else begin
      let rmc, session_key = inst.Common.sample_rmc () in
      let record =
        let biggest =
          List.fold_left
            (fun best s ->
              let size s = Dlog.length (Service.decision_log s) in
              if size s > size best then s else best)
            (List.hd inst.Common.services) inst.Common.services
        in
        let rs = Dlog.records (Service.decision_log biggest) in
        match List.rev (List.filter (fun r -> r.Dlog.decision = Dlog.Grant) rs) with
        | r :: _ -> r
        | [] -> List.hd rs
      in
      let store_size =
        int_of_float
          (List.fold_left
             (fun acc (k, v) -> if has_prefix "service.activations_granted" k then Float.max acc v else acc)
             0.0 s_end.reg)
      in
      let r =
        Ledger.replay ~authority:(World.authority inst.Common.world) ~rmc ~session_key
          ~appt:(inst.Common.sample_appt ()) ~store_size ~record
      in
      (* Every duration at the reference speed: the replays carry their
         own calibration, the run's spans and wall carry the run's. *)
      let wall = phase.Driver.wall_s *. speed in
      let offline = dw "service.offline_validations" in
      let own = float_of_int (s_end.own_checks - !s_prefix.own_checks) in
      let signs = dw "service.activations_granted" +. dw "civ.issues" in
      let hmac = float_of_int (s_end.civ_served - !s_prefix.civ_served) in
      let offline_us = (r.Ledger.verify_rmc_us +. r.Ledger.verify_appt_us) /. 2.0 in
      let sb = r.Ledger.signing_bytes_us in
      let us x = x /. 1e6 in
      let crypto_s =
        us
          ((offline *. (offline_us -. sb))
          +. (own *. (r.Ledger.verify_own_us -. sb))
          +. (signs *. (r.Ledger.sign_rmc_us -. sb))
          +. (hmac *. (r.Ledger.hmac_verify_us -. sb)))
      in
      let codec_s = us ((offline +. own +. signs +. hmac) *. sb) in
      let solve_s = Ledger.solve_total_s ledger *. speed in
      let store_s =
        us
          ((signs *. r.Ledger.cred_add_us) +. (own *. r.Ledger.cred_find_us)
          +. ((dw "service.revocations" +. dw "civ.revocations") *. r.Ledger.cred_revoke_us))
      in
      let dlog_s = us (dw "audit.records" *. r.Ledger.dlog_append_us) in
      let share x = ratio x wall in
      [
        ("crypto.verify_rmc_us", r.Ledger.verify_rmc_us, "us");
        ("crypto.verify_appt_us", r.Ledger.verify_appt_us, "us");
        ("crypto.verify_chain_us", r.Ledger.verify_chain_us, "us");
        ("crypto.verify_own_us", r.Ledger.verify_own_us, "us");
        ("crypto.sign_rmc_us", r.Ledger.sign_rmc_us, "us");
        ("crypto.hmac_verify_us", r.Ledger.hmac_verify_us, "us");
        ("crypto.share", share crypto_s, "ratio");
        ("codec.signing_bytes_us", sb, "us");
        ("codec.bytes_per_cert", r.Ledger.bytes_per_cert, "bytes");
        ("codec.share", share codec_s, "ratio");
        ("solve.wall_us_p50.activate", speed *. Ledger.solve_median_us ledger "activate", "us");
        ("solve.wall_us_p50.invoke", speed *. Ledger.solve_median_us ledger "invoke", "us");
        ("solve.share", share solve_s, "ratio");
        ("cred_store.add_us", r.Ledger.cred_add_us, "us");
        ("cred_store.find_us", r.Ledger.cred_find_us, "us");
        ("cred_store.revoke_us", r.Ledger.cred_revoke_us, "us");
        ("cred_store.share", share store_s, "ratio");
        ("dlog.append_us", r.Ledger.dlog_append_us, "us");
        ("dlog.share", share dlog_s, "ratio");
        ( "layers.unattributed_share",
          1.0 -. share (crypto_s +. codec_s +. solve_s +. store_s +. dlog_s),
          "ratio" );
        (* Both stretches ran seconds apart in this process: compared
           unscaled, as one calibration reading would only add noise. *)
        ("trace.overhead_ratio", ratio !traced_stretch_s !untraced_stretch_s, "ratio");
      ]
    end
  in
  let e2e =
    [
      ("setup_s", setup_s, "s");
      ("ops_per_s", Driver.ops_per_s d phase, "ops/s");
      ("peak_rss_mb", !rss, "MB");
      ("fail_ratio", ratio (float_of_int d.Driver.failed) (float_of_int d.Driver.attempted), "ratio");
    ]
    @ percentile_metrics w d
  in
  let failed = d.Driver.failed + List.length problems in
  let group name = if List.mem name gated then E2e else if name = "fail_ratio" then Info else Layer in
  let metrics =
    List.map
      (fun (name, value, unit_) -> { name; value; unit_; group = group name })
      (e2e @ counts @ ledger_metrics)
    @ List.map
        (fun (name, value, unit_) -> { name; value; unit_; group = Info })
        (("calib.factor", speed, "ratio") :: class_metrics w d)
  in
  {
    metrics;
    attempted = d.Driver.attempted;
    failed;
    failures = List.rev d.Driver.failures @ problems;
    sizes =
      inst.Common.sizes
      @ [
          ("prefix_ops", float_of_int prefix);
          ("measured_ops", float_of_int (phase.Driver.ops - prefix));
        ];
  }

(* ------------------------------------------------------------------ *)
(* Output                                                             *)
(* ------------------------------------------------------------------ *)

let git_rev () =
  let read path =
    match open_in path with
    | exception Sys_error _ -> None
    | ic ->
        let line = try Some (String.trim (input_line ic)) with End_of_file -> None in
        close_in ic;
        line
  in
  match read ".git/HEAD" with
  | Some head when has_prefix "ref: " head -> (
      let ref_ = String.sub head 5 (String.length head - 5) in
      match read (".git/" ^ ref_) with
      | Some rev -> rev
      | None -> (
          match open_in ".git/packed-refs" with
          | exception Sys_error _ -> "unknown"
          | ic ->
              let rec scan () =
                match input_line ic with
                | exception End_of_file -> "unknown"
                | line -> (
                    match String.split_on_char ' ' line with
                    | [ rev; r ] when r = ref_ -> rev
                    | _ -> scan ())
              in
              let rev = scan () in
              close_in ic;
              rev))
  | Some rev -> rev
  | None -> "unknown"

let header opts (res : result) =
  let g = Gc.get () in
  Json.Obj
    [
      ("git_rev", Json.Str (git_rev ()));
      ("workload", Json.Str opts.workload.Common.name);
      ("seed", Json.Num (float_of_int opts.seed));
      ("seconds", Json.Num opts.seconds);
      ("traced", Json.Bool opts.traced);
      ("smoke", Json.Bool opts.smoke);
      ("sizes", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) res.sizes));
      ( "gc",
        Json.Obj
          [
            ("minor_heap_size", Json.Num (float_of_int g.Gc.minor_heap_size));
            ("space_overhead", Json.Num (float_of_int g.Gc.space_overhead));
            ("max_overhead", Json.Num (float_of_int g.Gc.max_overhead));
            ("allocation_policy", Json.Num (float_of_int g.Gc.allocation_policy));
          ] );
      ("ocaml_version", Json.Str Sys.ocaml_version);
      ("nproc", Json.Num (float_of_int (Domain.recommended_domain_count ())));
    ]

let metric_json m = (m.name, Json.Obj [ ("value", Json.Num m.value); ("unit", Json.Str m.unit_) ])

let result_line opts res =
  let group = if opts.traced then Layer else E2e in
  Json.Obj
    [
      ("correct", Json.Bool (res.failed = 0));
      ("attempted", Json.Num (float_of_int res.attempted));
      ("failed", Json.Num (float_of_int res.failed));
      ( "metrics",
        Json.Obj
          (List.filter_map
             (fun m -> if m.group = group then Some (metric_json m) else None)
             res.metrics) );
    ]

let file_json opts res =
  Json.Obj
    [
      ("header", header opts res);
      ("correct", Json.Bool (res.failed = 0));
      ("attempted", Json.Num (float_of_int res.attempted));
      ("failed", Json.Num (float_of_int res.failed));
      ("failures", Json.Arr (List.map (fun s -> Json.Str s) res.failures));
      ("metrics", Json.Obj (List.map metric_json res.metrics));
    ]

let print opts res =
  List.iter (fun m -> Printf.printf "%-34s %.6g %s\n" m.name m.value m.unit_) res.metrics;
  List.iter (fun f -> Printf.printf "FAILURE %s\n" f) res.failures;
  (match opts.out with
  | Some path ->
      let oc = open_out path in
      output_string oc (Json.to_string (file_json opts res));
      output_char oc '\n';
      close_out oc
  | None -> ());
  print_endline (Json.to_string (result_line opts res))

(* ------------------------------------------------------------------ *)
(* Self-test                                                          *)
(* ------------------------------------------------------------------ *)

(* Every workload at smoke size, twice at the same seed and once traced:
   the re-parsed result lines carry exactly the metrics BENCHMARK.json
   names, each with its unit, nothing fails, and the virtual-clock metrics
   repeat exactly. *)
let self_test () =
  let bench =
    let ic = open_in_bin "BENCHMARK.json" in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Json.parse s
  in
  let names key =
    List.filter_map
      (fun m ->
        match (Json.member "name" m, Json.member "unit" m) with
        | Some (Json.Str n), Some (Json.Str u) -> Some (n, u)
        | _ -> None)
      (Json.to_list (Option.value ~default:Json.Null (Json.member key bench)))
  in
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  List.iter
    (fun w ->
      let opts traced = { workload = w; seed = 1; seconds = 0.0; traced; smoke = true; out = None } in
      let once traced =
        let o = opts traced in
        let res = run o in
        (res, Json.parse (Json.to_string (result_line o res)))
      in
      let virt (res : result) =
        List.filter_map
          (fun m -> if contains "_virt_ms_" m.name then Some (m.name, m.value) else None)
          res.metrics
      in
      let check_names (res, line) key =
        List.iter
          (fun (n, u) ->
            match Option.bind (Json.member "metrics" line) (Json.member n) with
            | Some m when Json.member "unit" m = Some (Json.Str u) -> ()
            | Some _ -> err "%s: %s has the wrong unit" w.Common.name n
            | None -> err "%s: %s missing" w.Common.name n)
          (names key);
        (match Json.member "metrics" line with
        | Some (Json.Obj kvs) when List.length kvs <> List.length (names key) ->
            err "%s: the result line carries metrics BENCHMARK.json does not list under %s" w.Common.name key
        | _ -> ());
        if res.failed <> 0 then
          err "%s: %d failures (%s)" w.Common.name res.failed (String.concat "; " res.failures)
      in
      let a = once false and b = once false and t = once true in
      check_names a "end_to_end";
      check_names t "per_layer";
      if virt (fst a) <> virt (fst b) then err "%s: virtual metrics differ between runs" w.Common.name;
      Printf.printf "self-test %s: %s\n%!" w.Common.name (if !errors = [] then "ok" else "FAILED"))
    workloads;
  List.iter prerr_endline (List.rev !errors);
  if !errors <> [] then exit 1

(* ------------------------------------------------------------------ *)
(* Command line                                                       *)
(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: perf.exe --workload grant|revoke|metropolis|scale --seed N [--seconds S]\n\
    \                [--trace 0|1 | --traced] [--smoke] [-o FILE]\n\
    \       perf.exe --self-test";
  exit 2

let () =
  let workload = ref None and seed = ref None and seconds = ref 10.0 in
  let traced = ref false and smoke = ref false and out = ref None and self = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        (match List.find_opt (fun x -> x.Common.name = w) workloads with
        | Some x -> workload := Some x
        | None -> usage ());
        parse rest
    | "--seed" :: n :: rest ->
        seed := int_of_string_opt n;
        if !seed = None then usage ();
        parse rest
    | "--seconds" :: s :: rest ->
        (match float_of_string_opt s with Some s when s > 0.0 -> seconds := s | _ -> usage ());
        parse rest
    | "--trace" :: v :: rest ->
        (match v with "0" -> traced := false | "1" -> traced := true | _ -> usage ());
        parse rest
    | "--traced" :: rest ->
        traced := true;
        parse rest
    | "--smoke" :: rest ->
        smoke := true;
        parse rest
    | "-o" :: path :: rest ->
        out := Some path;
        parse rest
    | "--self-test" :: rest ->
        self := true;
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !self then self_test ()
  else
    match (!workload, !seed) with
    | Some workload, Some seed ->
        let opts = { workload; seed; seconds = !seconds; traced = !traced; smoke = !smoke; out = !out } in
        let res = run opts in
        print opts res;
        if res.failed > 0 then exit 1
    | _ -> usage ()
