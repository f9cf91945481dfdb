(* Trust-churn chaos core (DESIGN.md §16).

   One seed = one world with a CIV registrar and a "gate" service whose
   [trusted] role is gated on a live trust score with a hysteresis band.
   The schedule randomises contracted interactions (scores flap across the
   gate), registrar crashes mid-issuance (half-filed audit certificates),
   partitions isolating the trust owner, and gate crash/restart cycles
   (durable decision-log resume). Shared by test/test_chaos_trust.ml and
   the E17 bench so the invariants, the δ=0 ablation and the tamper drill
   run the exact same schedules. *)

module World = Oasis_core.World
module Service = Oasis_core.Service
module Principal = Oasis_core.Principal
module Protocol = Oasis_core.Protocol
module Durable = Oasis_core.Durable
module Civ = Oasis_domain.Civ
module Fault = Oasis_sim.Fault
module Dlog = Oasis_trust.Decision_log
module History = Oasis_trust.History
module Audit = Oasis_trust.Audit
module Ident = Oasis_util.Ident
module Value = Oasis_util.Value
module Rng = Oasis_util.Rng

(* The trust gate: grant at [theta], hold (with a band) down to
   [theta - band]. *)
let theta = 0.6

type config = {
  seed : int;
  steps : int;
  band : float;  (* hysteresis δ; 0.0 is the flappy ablation *)
  decay_rate : float;  (* λ in exp(-λ·age); 0.0 disables decay *)
  decay_tick : float;  (* periodic re-assessment period *)
  tamper : bool;  (* corrupt the durable chain mid-run *)
}

let default_config =
  {
    seed = 1;
    steps = 30;
    band = 0.1;
    decay_rate = 0.05;
    decay_tick = 0.5;
    tamper = false;
  }

type t = {
  cfg : config;
  world : World.t;
  civ : Civ.t;
  gate : Service.t;
  subject : Principal.t;
  subject_id : Ident.t;
  peer_id : Ident.t;
  session : Principal.session;
  mutable customer : Ident.t option;  (* RMC id of the prerequisite role *)
  mutable trusted : Ident.t option;  (* RMC id of the live trusted role *)
  mutable grants : int;
  mutable interactions : int;
  mutable mid_crashes : int;
  mutable gate_restarts : int;
  mutable partitioned : bool;
  mutable tampered : bool;
  mutable tamper_detected : bool;
  mutable violations : string list;
}

type summary = {
  seed : int;
  t_end : float;
  interactions : int;
  mid_crashes : int;
  gate_restarts : int;
  grants : int;
  cascade_deactivations : int;
  flaps_suppressed : int;
  final_score : float;
  trusted_at_end : bool;
  wallet_subject : int;
  wallet_peer : int;
  chain_length : int;
  tampered : bool;
  tamper_detected : bool;
  violations : string list;
}

let violation (c : t) fmt = Printf.ksprintf (fun m -> c.violations <- m :: c.violations) fmt
let score (c : t) = World.trust_score c.world c.subject_id

let build (cfg : config) =
  let world = World.create ~seed:cfg.seed () in
  let civ = Civ.create world ~name:"civ" () in
  if cfg.decay_rate > 0.0 then World.set_trust_decay world ~rate:cfg.decay_rate ~tick:cfg.decay_tick;
  let policy =
    Printf.sprintf
      "initial customer(u) <- *appt:account(u)@civ ;\n\
       trusted(u) <- *customer(u), *env:trust_score(u) >= %g%s ;\n\
       priv order(u) <- trusted(u) ;"
      theta
      (if cfg.band > 0.0 then Printf.sprintf " ~ %g" cfg.band else "")
  in
  let gate = Service.create world ~name:"gate" ~policy () in
  let subject = Principal.create world ~name:"subject" in
  let peer = Principal.create world ~name:"peer" in
  let appt =
    Civ.issue civ ~kind:"account"
      ~args:[ Value.Id (Principal.id subject) ]
      ~holder:(Principal.id subject)
      ~holder_key:(Principal.longterm_public subject)
      ()
  in
  Principal.grant_appointment subject appt;
  let customer = ref None in
  let session =
    World.run_proc world (fun () ->
        let s = Principal.start_session subject in
        (match Principal.activate subject s gate ~role:"customer" () with
        | Ok rmc -> customer := Some rmc.Oasis_cert.Rmc.id
        | Error d ->
            failwith ("churn setup: customer denied: " ^ Protocol.denial_to_string d));
        s)
  in
  World.settle world;
  {
    cfg;
    world;
    civ;
    gate;
    subject;
    subject_id = Principal.id subject;
    peer_id = Principal.id peer;
    session;
    customer = !customer;
    trusted = None;
    grants = 0;
    interactions = 0;
    mid_crashes = 0;
    gate_restarts = 0;
    partitioned = false;
    tampered = false;
    tamper_detected = false;
    violations = [];
  }

let trusted_active c =
  match c.trusted with
  | None -> false
  | Some id ->
      if Service.is_valid_certificate c.gate id then true
      else begin
        c.trusted <- None;
        false
      end

let customer_active c =
  match c.customer with
  | None -> false
  | Some id ->
      if Service.is_valid_certificate c.gate id then true
      else begin
        c.customer <- None;
        false
      end

(* A registrar crash can take the monitored [customer] prerequisite down
   with it (the appointment no longer re-validates); re-earn it first or
   the [trusted] activation below is dead on arrival for the whole run. *)
let try_activate c =
  if not (customer_active c) then
    World.run_proc c.world (fun () ->
        match Principal.activate c.subject c.session c.gate ~role:"customer" () with
        | Ok rmc -> c.customer <- Some rmc.Oasis_cert.Rmc.id
        | Error _ -> ());
  if customer_active c && not (trusted_active c) then
    World.run_proc c.world (fun () ->
        match Principal.activate c.subject c.session c.gate ~role:"trusted" () with
        | Ok rmc ->
            c.trusted <- Some rmc.Oasis_cert.Rmc.id;
            c.grants <- c.grants + 1
        | Error _ -> ())

let interact c rng ~crash_mid =
  (* Steer outcomes toward the threshold: breach-heavy above the gate,
     fulfilment-heavy below it. The score spends the run oscillating
     through the hysteresis band — the regime the harness exists to
     stress — instead of settling on one side of it. *)
  let toward_gate = Rng.int rng 4 < 3 in
  let above = score c >= theta in
  let breach = if toward_gate then above else not above in
  let outcome = if breach then Audit.Breached else Audit.Fulfilled in
  let record = if crash_mid then Civ.record_interaction_crashing else Civ.record_interaction in
  match
    record c.civ ~client:c.subject_id ~server:c.peer_id ~client_outcome:outcome
      ~server_outcome:Audit.Fulfilled
  with
  | _ ->
      c.interactions <- c.interactions + 1;
      if crash_mid then c.mid_crashes <- c.mid_crashes + 1
  | exception Civ.Primary_unavailable -> ()

(* Restart the gate through the fault controller; classify the outcome
   against whether we actually tampered with its durable chain. *)
let restart_gate c =
  match Service.restart c.gate with
  | () ->
      c.gate_restarts <- c.gate_restarts + 1;
      if c.tampered then violation c "chain: tampered durable log admitted on restart";
      if not c.tampered then begin
        match Dlog.verify (Service.decision_log c.gate) with
        | Ok _ -> ()
        | Error (seq, why) ->
            violation c "chain: verify failed after restart at seq %d (%s)" seq why
      end
  | exception Service.Chain_tampered { seq; why; _ } ->
      if c.tampered then c.tamper_detected <- true
      else violation c "chain: restart refused without tampering (seq %d: %s)" seq why

let tamper_chain c =
  if not (Service.is_crashed c.gate) then Service.crash c.gate;
  let key = "dlog:" ^ Ident.to_string (Service.id c.gate) in
  if Durable.corrupt (World.durable c.world) key ~byte:(41 + c.cfg.seed) then c.tampered <- true

(* Decay drifts a score between the notification that last rechecked the
   gate and the moment we observe it; bound the drift over a 2 s window so
   the invariant doesn't flag reads the event machinery hasn't seen yet. *)
let drift_margin c = (0.5 *. (1.0 -. exp (-2.0 *. c.cfg.decay_rate))) +. 1e-9

(* The gate invariant: a role still active while the score sits below the
   full hysteresis band (θ - δ, minus decay drift) is a stale grant. *)
let check_gate c =
  if not (Service.is_crashed c.gate) then begin
    let s = score c in
    if trusted_active c && s < theta -. c.cfg.band -. drift_margin c then
      violation c "gate: trusted still active at score %.4f < %g - %g" s theta c.cfg.band
  end

let step c rng =
  World.run_until c.world (World.now c.world +. (0.3 +. Rng.float rng 0.7));
  (match Rng.int rng 12 with
  | 0 | 1 | 2 | 3 -> interact c rng ~crash_mid:false
  | 4 -> interact c rng ~crash_mid:true
  | 5 ->
      let fa = World.fault c.world in
      if Fault.is_crashed fa (Civ.id c.civ) then Fault.restart fa (Civ.id c.civ)
  | 6 ->
      if Service.is_crashed c.gate then restart_gate c
      else Service.crash c.gate
  | 7 ->
      if not c.partitioned then begin
        Fault.partition (World.fault c.world) ~name:"iso" [ c.subject_id ]
          [ Service.id c.gate; Civ.id c.civ ];
        c.partitioned <- true
      end
  | 8 ->
      if c.partitioned then begin
        Fault.heal (World.fault c.world) "iso";
        c.partitioned <- false
      end
  | 9 ->
      (* A quiet stretch: decay does the moving, ticks do the poking. *)
      World.run_until c.world (World.now c.world +. 5.0)
  | _ -> ());
  try_activate c;
  World.settle c.world;
  check_gate c

let finish c =
  Fault.heal_all (World.fault c.world);
  c.partitioned <- false;
  let fa = World.fault c.world in
  if Fault.is_crashed fa (Civ.id c.civ) then Fault.restart fa (Civ.id c.civ);
  if Service.is_crashed c.gate then restart_gate c;
  World.run_until c.world (World.now c.world +. Float.max c.cfg.decay_tick 1.0 +. 2.0);
  if not (Service.is_crashed c.gate) then begin
    try_activate c;
    World.settle c.world
  end;
  check_gate c;
  (* Anti-entropy: with the registrar healed, every issued certificate
     must have reached both wallets — and only the wallets' dedup keeps
     the re-delivered halves from double counting. *)
  let ws = History.size (World.wallet c.world c.subject_id)
  and wp = History.size (World.wallet c.world c.peer_id) in
  if ws <> wp then violation c "anti-entropy: wallets differ after heal (%d vs %d)" ws wp;
  if Civ.pending_filings c.civ <> 0 then
    violation c "anti-entropy: %d pending filings after heal" (Civ.pending_filings c.civ);
  if (not c.tampered) && not (Service.is_crashed c.gate) then begin
    match Dlog.verify (Service.decision_log c.gate) with
    | Ok _ -> ()
    | Error (seq, why) -> violation c "chain: final verify failed at seq %d (%s)" seq why
  end

let summarise c =
  let st = Service.stats c.gate in
  {
    seed = c.cfg.seed;
    t_end = World.now c.world;
    interactions = c.interactions;
    mid_crashes = c.mid_crashes;
    gate_restarts = c.gate_restarts;
    grants = c.grants;
    cascade_deactivations = st.Service.cascade_deactivations;
    flaps_suppressed = st.Service.flaps_suppressed;
    final_score = score c;
    trusted_at_end = trusted_active c;
    wallet_subject = History.size (World.wallet c.world c.subject_id);
    wallet_peer = History.size (World.wallet c.world c.peer_id);
    chain_length = Dlog.length (Service.decision_log c.gate);
    tampered = c.tampered;
    tamper_detected = c.tamper_detected;
    violations = List.rev c.violations;
  }

let run (cfg : config) =
  let c = build cfg in
  let rng = Rng.create ((cfg.seed * 2654435761) lxor 0x9e3779b9) in
  for i = 1 to cfg.steps do
    if c.cfg.tamper && i = Int.max 1 (cfg.steps / 2) then tamper_chain c;
    step c rng
  done;
  finish c;
  summarise c
