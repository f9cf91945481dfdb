module Ident = Oasis_util.Ident

(* Per-subject running beta aggregates, valued at [t_ref] on the virtual
   clock. Because exponential decay scales every already-folded weight by
   the same factor exp(-lambda * dt), an aggregate can be brought forward
   to any later instant with one multiplication instead of re-walking the
   wallet — the basis of O(certs-for-subject) assessment. *)
type agg = {
  mutable s : float; (* decayed success mass, valued at t_ref *)
  mutable f : float; (* decayed failure mass, valued at t_ref *)
  mutable t_ref : float;
}

type t = {
  thr : float;
  discounting : bool;
  weights : float Ident.Tbl.t; (* registrar -> credibility *)
  mutable decay_rate : float; (* lambda; 0.0 = ageless (legacy) *)
  aggregates : agg Ident.Tbl.t; (* subject -> running aggregate *)
}

let create ?(threshold = 0.5) ?(discounting = true) ?(decay_rate = 0.0) () =
  if threshold <= 0.0 || threshold >= 1.0 then
    invalid_arg "Assess.create: threshold must lie in (0, 1)";
  if decay_rate < 0.0 then invalid_arg "Assess.create: decay_rate must be >= 0";
  {
    thr = threshold;
    discounting;
    weights = Ident.Tbl.create 16;
    decay_rate;
    aggregates = Ident.Tbl.create 16;
  }

let threshold t = t.thr
let decay_rate t = t.decay_rate

let invalidate t = Ident.Tbl.reset t.aggregates

let set_decay_rate t rate =
  if rate < 0.0 then invalid_arg "Assess.set_decay_rate: rate must be >= 0";
  if rate <> t.decay_rate then begin
    t.decay_rate <- rate;
    invalidate t
  end

let registrar_weight t registrar =
  match Ident.Tbl.find_opt t.weights registrar with Some w -> w | None -> 1.0

(* Weight one certificate carries at virtual time [now]: registrar
   credibility times exp(-lambda * age). A certificate "from the future"
   (clock skew in hand-built tests) counts at full weight. *)
let cert_weight t ~now (cert : Audit.t) =
  let age = Float.max 0.0 (now -. cert.Audit.at) in
  registrar_weight t cert.Audit.registrar *. exp (-.t.decay_rate *. age)

let beta_score ~successes ~failures =
  (successes +. 1.0) /. (successes +. failures +. 2.0)

(* Bring an aggregate forward to [now]. Never rewinds: assessing at an
   earlier instant than the aggregate's reference would need the undecayed
   terms back, so callers fall through to a full recompute instead. *)
let advance t agg ~now =
  if now > agg.t_ref then begin
    let k = exp (-.t.decay_rate *. (now -. agg.t_ref)) in
    agg.s <- agg.s *. k;
    agg.f <- agg.f *. k;
    agg.t_ref <- now
  end

let observe t ~subject ~now cert =
  match Ident.Tbl.find_opt t.aggregates subject with
  | None -> () (* no running aggregate yet; first full assess seeds it *)
  | Some agg ->
      advance t agg ~now;
      let w = cert_weight t ~now cert in
      match Audit.outcome_for cert subject with
      | Some Audit.Fulfilled -> agg.s <- agg.s +. w
      | Some Audit.Breached -> agg.f <- agg.f +. w
      | None -> ()

let cached_score t ~subject ~now =
  match Ident.Tbl.find_opt t.aggregates subject with
  | None -> None
  | Some agg ->
      if now < agg.t_ref then None
      else begin
        advance t agg ~now;
        Some (beta_score ~successes:agg.s ~failures:agg.f)
      end

type verdict = {
  subject : Ident.t;
  score : float;
  proceed : bool;
  evidence : (Audit.t * float) list;
  rejected : int;
  rejected_not_about_subject : int;
  rejected_validation_failed : int;
  rejected_duplicate : int;
}

let assess_at ?(remember = false) t ~now ~validate ~subject ~presented =
  let seen = Ident.Tbl.create 16 in
  let evidence, not_about, invalid, dup =
    List.fold_left
      (fun (evidence, not_about, invalid, dup) cert ->
        if Ident.Tbl.mem seen cert.Audit.id then (evidence, not_about, invalid, dup + 1)
        else begin
          Ident.Tbl.replace seen cert.Audit.id ();
          if not (Audit.involves cert subject) then (evidence, not_about + 1, invalid, dup)
          else if not (validate cert) then (evidence, not_about, invalid + 1, dup)
          else ((cert, cert_weight t ~now cert) :: evidence, not_about, invalid, dup)
        end)
      ([], 0, 0, 0) presented
  in
  let successes, failures =
    List.fold_left
      (fun (s, f) ((cert : Audit.t), weight) ->
        match Audit.outcome_for cert subject with
        | Some Audit.Fulfilled -> (s +. weight, f)
        | Some Audit.Breached -> (s, f +. weight)
        | None -> (s, f))
      (0.0, 0.0) evidence
  in
  (* Beta-reputation point estimate with a uniform prior. *)
  let score = beta_score ~successes ~failures in
  if remember then
    Ident.Tbl.replace t.aggregates subject { s = successes; f = failures; t_ref = now };
  {
    subject;
    score;
    proceed = score >= t.thr;
    evidence;
    rejected = not_about + invalid + dup;
    rejected_not_about_subject = not_about;
    rejected_validation_failed = invalid;
    rejected_duplicate = dup;
  }

(* Ageless assessment: with [now = 0.0] every age clamps to zero, so the
   decay factor is 1 and only registrar credibility weighs — the pre-decay
   behaviour, kept for callers outside the simulated clock. *)
let assess t ~validate ~subject ~presented =
  assess_at t ~now:0.0 ~validate ~subject ~presented

let clamp lo hi x = Float.max lo (Float.min hi x)

let feedback t verdict ~actual =
  if t.discounting then
    let vouchers =
      (* Registrars whose certificates spoke in the subject's favour. *)
      List.filter_map
        (fun ((cert : Audit.t), _w) ->
          match Audit.outcome_for cert verdict.subject with
          | Some Audit.Fulfilled -> Some cert.registrar
          | Some Audit.Breached | None -> None)
        verdict.evidence
      |> List.sort_uniq Ident.compare
    in
    let adjust factor registrar =
      let w = clamp 0.01 1.0 (registrar_weight t registrar *. factor) in
      Ident.Tbl.replace t.weights registrar w
    in
    let punish_or_reward () =
      match actual with
      | Audit.Breached when verdict.proceed ->
          (* The vouched-for party betrayed: the vouchers lose credibility fast. *)
          List.iter (adjust 0.5) vouchers
      | Audit.Fulfilled ->
          (* Consistent testimony: slow recovery. *)
          List.iter (adjust 1.1) vouchers
      | Audit.Breached -> ()
    in
    punish_or_reward ();
    (* Registrar credibilities moved, so every running aggregate that folded
       their certificates in at the old weight is stale. *)
    if vouchers <> [] then invalidate t
