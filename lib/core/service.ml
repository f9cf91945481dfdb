module Ident = Oasis_util.Ident
module Value = Oasis_util.Value
module Rng = Oasis_util.Rng
module Backoff = Oasis_util.Backoff
module Proc = Oasis_sim.Proc
module Engine = Oasis_sim.Engine
module Network = Oasis_sim.Network
module Broker = Oasis_event.Broker
module Heartbeat = Oasis_event.Heartbeat
module Fault = Oasis_sim.Fault
module Env = Oasis_policy.Env
module Rule = Oasis_policy.Rule
module Term = Oasis_policy.Term
module Solve = Oasis_policy.Solve
module Parser = Oasis_policy.Parser
module Lint = Oasis_policy.Lint
module Rmc = Oasis_cert.Rmc
module Appointment = Oasis_cert.Appointment
module Cr = Oasis_cert.Credential_record
module Vcache = Oasis_cert.Validation_cache
module Elgamal = Oasis_crypto.Elgamal
module Signed = Oasis_cert.Signed
module Issuer_key = Oasis_cert.Issuer_key
module Challenge = Oasis_crypto.Challenge
module Obs = Oasis_obs.Obs
module Dlog = Oasis_trust.Decision_log

let log = Logs.Src.create "oasis.service" ~doc:"OASIS service events"

module Log = (val Logs.src_log log)

type config = {
  challenge_on_activation : bool;
  challenge_on_invocation : bool;
  challenge_appointment_holders : bool;
  cache_remote_validation : bool;
  retry : Backoff.policy;
  suspect_grace : float;
  reconcile_batch : int;
  offline_sign : bool;
}

let default_config =
  {
    challenge_on_activation = false;
    challenge_on_invocation = false;
    challenge_appointment_holders = false;
    cache_remote_validation = true;
    (* Three immediate attempts: byte-for-byte the historical fixed-count
       retry. Fault-tolerant deployments swap in a jittered policy. *)
    retry = Backoff.fixed 3;
    suspect_grace = 0.0;
    reconcile_batch = 8;
    offline_sign = true;
  }

(* Watch state for one remote credential supporting an active role or a
   cached validation verdict. *)
type watch =
  | Watch_event of Broker.subscription
  | Watch_beat of Heartbeat.monitor
  | Watch_timer of Engine.cancel option ref
      (* the slot holds the currently armed re-check timer; re-arming
         replaces the handle instead of accumulating dead ones *)

(* A remote (or local prerequisite) credential supporting an active role.
   Durable: survives crash (unlike the live watch), so restart can rebuild
   monitors and reconciliation knows what to re-validate. *)
type dep = {
  dep_issuer : Ident.t;
  dep_cert : Ident.t;
  mutable dep_watch : watch option;  (* None while silent/crashed *)
}

(* Per-role suspect state (DESIGN.md §11): the failure detector fired but
   revocation is not yet confirmed. Resolved by reconciliation (reinstate or
   revoke) or by the grace timer (fail-closed degradation). *)
type suspect_state = { mutable sus_timer : Engine.cancel option }

(* An RMC this service has issued, with its active-security state. *)
type issued_rmc = {
  rmc : Rmc.t;
  record : Cr.t;
  initial : bool;
  session_key : string;
  ir_principal : Ident.t;
  mutable deps : dep list;
  mutable watches : watch list;  (* env re-check timers *)
  mutable env_watch : (string * Value.t list) list;
      (* ground membership env constraints; first component may carry '!' *)
  mutable suspect : suspect_state option;
  mutable reconciling : bool;  (* queued or running in the reconciler *)
}

(* Ground fact tuples hash structurally and compare as the env's fact store
   compares them. *)
module Tuple_tbl = Hashtbl.Make (struct
  type t = Value.t list

  let equal = List.equal Value.equal
  let hash = Hashtbl.hash
end)

(* Per-service counters in the world's registry, labelled
   [service=<name>] — e.g. [service.env_rechecks{service=hospital}]. The
   public [stats] record below reads them back. *)
type counters = {
  activations_granted : Obs.Counter.t;
  activations_denied : Obs.Counter.t;
  invocations_granted : Obs.Counter.t;
  invocations_denied : Obs.Counter.t;
  appointments_granted : Obs.Counter.t;
  appointments_denied : Obs.Counter.t;
  callbacks_in : Obs.Counter.t;
  callbacks_out : Obs.Counter.t;
  offline_validations : Obs.Counter.t;
  validation_failures : Obs.Counter.t;
  revocations : Obs.Counter.t;
  cascade_deactivations : Obs.Counter.t;
  env_rechecks : Obs.Counter.t;
  suspects : Obs.Counter.t;
  reconciled_reinstated : Obs.Counter.t;
  reconciled_revoked : Obs.Counter.t;
  retries_validate : Obs.Counter.t;
  retries_reconcile : Obs.Counter.t;
  flaps_suppressed : Obs.Counter.t;
}

type stats = {
  activations_granted : int;
  activations_denied : int;
  invocations_granted : int;
  invocations_denied : int;
  appointments_granted : int;
  appointments_denied : int;
  callbacks_in : int;
  callbacks_out : int;
  offline_validations : int;
  validation_failures : int;
  revocations : int;
  cascade_deactivations : int;
  env_rechecks : int;
  suspects : int;
  reconciled_reinstated : int;
  reconciled_revoked : int;
  flaps_suppressed : int;
}

type t = {
  world : World.t;
  sid : Ident.t;
  sname : string;
  obs : Obs.t;
  config : config;
  env : Env.t;
  key : Issuer_key.t;
  root_address : string;
  activations : (string, Rule.activation Queue.t) Hashtbl.t;
  authorizations : (string, Rule.authorization Queue.t) Hashtbl.t;
  appointers : (string, Rule.authorization Queue.t) Hashtbl.t;
  operations : (string, principal:Ident.t -> Value.t list -> Value.t option) Hashtbl.t;
  records : Issuer_records.t;
  rmcs : issued_rmc Ident.Tbl.t;
  env_index : (string, issued_rmc Ident.Map.t Tuple_tbl.t) Hashtbl.t;
      (* predicate base name -> fact tuple -> issued RMCs whose membership
         rule watches that ground instance *)
  watchers_by_issuer : issued_rmc Ident.Tbl.t Ident.Tbl.t;
      (* remote issuer -> issued RMCs holding a dependency on that issuer;
         an issuer-unreachable sweep touches only its watchers, never the
         whole RMC table *)
  cache : Vcache.t;
  cache_watched : watch Ident.Tbl.t;  (* remote cert id -> invalidation watch *)
  st : counters;
  mutable dlog : Dlog.t; (* replaced by the durable-resume on restart *)
  mutable crashed : bool;
  (* Reconciliation scheduler: at most [config.reconcile_batch] suspect
     roles re-validate concurrently; the rest queue. *)
  mutable recon_running : int;
  recon_queue : issued_rmc Queue.t;
}

let id t = t.sid
let service_name t = t.sname
let env t = t.env
let world t = t.world
let current_epoch t = Issuer_key.epoch t.key

(* ------------------------------------------------------------------ *)
(* Policy installation                                                *)
(* ------------------------------------------------------------------ *)

(* Appends in O(1) while preserving installation order: a rule installed
   first is tried first, and bulk policy installation stays linear in the
   number of rules per role. *)
let multi_add table key v =
  match Hashtbl.find_opt table key with
  | Some q -> Queue.push v q
  | None ->
      let q = Queue.create () in
      Queue.push v q;
      Hashtbl.replace table key q

let add_activation_rule t (rule : Rule.activation) = multi_add t.activations rule.role rule

let add_authorization_rule t (rule : Rule.authorization) =
  multi_add t.authorizations rule.privilege rule

let set_appointer t ~kind ~rule = multi_add t.appointers kind rule

let register_operation t privilege handler = Hashtbl.replace t.operations privilege handler

(* ------------------------------------------------------------------ *)
(* Credential validation                                              *)
(* ------------------------------------------------------------------ *)

(* Own certificates verify under this service's issuer key, and the
   credential record store has the last word — a perfectly signed but
   revoked certificate is dead. *)
let verify_own_rmc t ~principal_key (rmc : Rmc.t) =
  Issuer_key.verify_rmc t.key ~principal_key rmc && Issuer_records.is_valid t.records rmc.id

let verify_own_appt t (appt : Appointment.t) =
  Issuer_key.verify_appointment t.key ~now:(World.now t.world) appt
  && Issuer_records.is_valid t.records appt.id

(* How a presented certificate is verified follows from what its issuer
   publishes: offline against the issuer's chain with the domain root when
   there is one, by callback otherwise. *)
let issuer_chain t issuer = Signed.chain_for (World.authority t.world) issuer

(* Starts an invalidation watch for a remote certificate, used both for
   membership monitoring and for cache invalidation. [on_dead] learns how
   the credential died: [`Revoked reason] is definitive (the issuer said
   so); [`Silence] is a failure-detector verdict (heartbeats stopped) — the
   issuer may be partitioned away, not revoking (DESIGN.md §11). *)
let watch_invalidation ?(replay = true) t ~issuer ~cert_id ~on_dead =
  let topic = Cr.topic_of ~issuer ~cert_id in
  match World.monitoring t.world with
  | Change_events ->
      let sub =
        (* A fresh watch picks up a retained Invalidated published before it
           subscribed: a certificate verified offline was never shown to its
           issuer, and a callback verdict can be overtaken by a revocation
           published while the reply was in flight. Only the restart
           rebuild opts out ([replay = false]): its roles go suspect and
           reconciliation asks the issuer instead. *)
        Broker.subscribe ~replay_retained:replay (World.broker t.world) topic
          ~owner:t.sid (fun _topic event ->
            match event with
            | Protocol.Invalidated { reason; _ } -> on_dead (`Revoked reason)
            | Protocol.Beat _ | Protocol.Replicated _ -> ())
      in
      Watch_event sub
  | Heartbeats { deadline; _ } ->
      let monitor =
        Heartbeat.watch
          ~accept:(function Protocol.Beat _ -> true | _ -> false)
          ~owner:t.sid (World.broker t.world) (World.engine t.world) ~topic ~deadline
          ~on_miss:(fun () -> on_dead `Silence)
      in
      Watch_beat monitor

let drop_watch t = function
  | Watch_event sub -> Broker.unsubscribe (World.broker t.world) sub
  | Watch_beat monitor -> Heartbeat.cancel_watch monitor
  | Watch_timer slot -> (
      match !slot with
      | Some cancel ->
          Engine.cancel (World.engine t.world) cancel;
          slot := None
      | None -> ())

(* ------------------------------------------------------------------ *)
(* The env reverse index (predicate -> fact tuple -> watching RMCs)  *)
(* ------------------------------------------------------------------ *)

(* A fact change must touch only the RMCs whose membership rule watches the
   changed ground fact, not every RMC the service ever issued nor every
   watcher of the predicate; the index is maintained on issue and
   deactivation. A leading '!' is stripped, so a negated watch shares the
   bucket of its fact.

   A computed predicate announces a change with [Env.poke], whose args are
   always [[]], and one poke may move the truth of several tuples (the
   trust assessor discounts registrars, shifting subjects other than the
   one notified). So every watch of a computed predicate is keyed [[]],
   the one bucket a poke looks up. Whether a watched name is a fact
   predicate never changes: the env neither forgets a fact predicate nor
   lets a computed one take its name. *)
let env_index_key t base args = if Env.fact_predicate t.env base then args else []

let index_env_watch t issued (name, args) =
  let base = Env.base_name name in
  let tuples =
    match Hashtbl.find_opt t.env_index base with
    | Some tuples -> tuples
    | None ->
        let tuples = Tuple_tbl.create 8 in
        Hashtbl.replace t.env_index base tuples;
        tuples
  in
  let key = env_index_key t base args in
  let bucket = Option.value (Tuple_tbl.find_opt tuples key) ~default:Ident.Map.empty in
  Tuple_tbl.replace tuples key (Ident.Map.add issued.rmc.Rmc.id issued bucket)

let unindex_env t issued =
  List.iter
    (fun (name, args) ->
      let base = Env.base_name name in
      match Hashtbl.find_opt t.env_index base with
      | None -> ()
      | Some tuples -> (
          let key = env_index_key t base args in
          match Tuple_tbl.find_opt tuples key with
          | None -> ()
          | Some bucket ->
              let bucket = Ident.Map.remove issued.rmc.Rmc.id bucket in
              if Ident.Map.is_empty bucket then begin
                Tuple_tbl.remove tuples key;
                if Tuple_tbl.length tuples = 0 then Hashtbl.remove t.env_index base
              end
              else Tuple_tbl.replace tuples key bucket))
    issued.env_watch

(* ------------------------------------------------------------------ *)
(* The dependency reverse index (remote issuer -> watching RMCs)      *)
(* ------------------------------------------------------------------ *)

(* Mirror of the durable [issued.deps] lists, maintained on dependency
   creation and role deactivation: an unreachable-issuer verdict must cost
   the roles actually depending on that issuer, not a scan of every RMC the
   service ever issued. Own-issuer dependencies are never indexed — local
   state cannot be unreachable. *)
let index_dep t issued dep =
  if not (Ident.equal dep.dep_issuer t.sid) then begin
    let bucket =
      match Ident.Tbl.find_opt t.watchers_by_issuer dep.dep_issuer with
      | Some b -> b
      | None ->
          let b = Ident.Tbl.create 8 in
          Ident.Tbl.replace t.watchers_by_issuer dep.dep_issuer b;
          b
    in
    Ident.Tbl.replace bucket issued.rmc.Rmc.id issued
  end

let unindex_deps t issued =
  List.iter
    (fun dep ->
      if not (Ident.equal dep.dep_issuer t.sid) then
        match Ident.Tbl.find_opt t.watchers_by_issuer dep.dep_issuer with
        | None -> ()
        | Some bucket ->
            Ident.Tbl.remove bucket issued.rmc.Rmc.id;
            if Ident.Tbl.length bucket = 0 then
              Ident.Tbl.remove t.watchers_by_issuer dep.dep_issuer)
    issued.deps

(* ------------------------------------------------------------------ *)
(* Revocation and cascading deactivation (Fig. 5)                     *)
(* ------------------------------------------------------------------ *)

let cancel_suspect t issued =
  match issued.suspect with
  | None -> ()
  | Some s ->
      (match s.sus_timer with
      | Some c ->
          Engine.cancel (World.engine t.world) c;
          s.sus_timer <- None
      | None -> ());
      issued.suspect <- None

let drop_dep_watch t dep =
  match dep.dep_watch with
  | Some w ->
      dep.dep_watch <- None;
      drop_watch t w
  | None -> ()

(* Tears down a role's in-memory monitoring — dependency watches, env
   timers, suspect timer — on deactivation and on crash alike. Its emitter
   is the issuer records' to stop. *)
let stop_monitoring t issued =
  cancel_suspect t issued;
  List.iter (drop_dep_watch t) issued.deps;
  List.iter (drop_watch t) issued.watches;
  issued.watches <- []

(* The decision-log chain is mirrored into the world's durable store under
   this key: the header once at creation, then one export line per
   appended record (incremental — the write cost per decision is that
   line, never the chain). Restart resumes from the blob; see
   [resume_chain]. *)
let chain_key t = "dlog:" ^ Ident.to_string t.sid

(* Every access-control decision lands in the hash-chained per-service
   decision log with its provenance, plus the audit.records counter. The
   trace_seq snapshot correlates the record with the obs event emitted just
   before it (0 while tracing is off). *)
let log_decision t ~decision ~principal ~action ?(args = []) ?(rule = "") ?(creds = [])
    ?(env_facts = []) () =
  Obs.Counter.inc
    (Obs.counter t.obs "audit.records"
       ~labels:[ ("service", t.sname); ("decision", Dlog.decision_label decision) ]);
  let r =
    Dlog.append t.dlog ~at:(World.now t.world) ~decision ~principal ~action ~args ~rule ~creds
      ~env_facts ~trace_seq:(Obs.last_seq t.obs) ()
  in
  Durable.append (World.durable t.world) (chain_key t) (Dlog.export_line r)

let render_env_fact (name, args) =
  if args = [] then name
  else Printf.sprintf "%s(%s)" name (String.concat ", " (List.map Value.to_string args))

let support_env_facts support =
  List.filter_map
    (function
      | Solve.By_env (name, args) -> Some (render_env_fact (name, args))
      | Solve.By_rmc _ | Solve.By_appointment _ -> None)
    support

let support_creds support =
  List.filter_map
    (function
      | Solve.By_rmc (c : Solve.cred) | Solve.By_appointment c -> Some c.Solve.cred_id
      | Solve.By_env _ -> None)
    support

(* Deactivation revokes the RMC's credential record. Between the flip and
   the announcement on its channel, the role's own state goes: counters,
   the svc.revoke event, the Revoke decision record and its monitoring. *)
let deactivate_rmc t (issued : issued_rmc) ~reason ~cascade =
  let bookkeeping _record =
    Obs.Counter.inc t.st.revocations;
    if cascade then Obs.Counter.inc t.st.cascade_deactivations;
    if Obs.tracing t.obs then
      Obs.event t.obs "svc.revoke"
        ~labels:
          [
            ("service", t.sname);
            ("cert", Ident.to_string issued.rmc.Rmc.id);
            ("role", issued.rmc.Rmc.role);
            ("cascade", if cascade then "true" else "false");
            ("reason", reason);
          ];
    Log.debug (fun m ->
        m "%s deactivates %s (%s): %s" t.sname (Ident.to_string issued.rmc.Rmc.id)
          issued.rmc.Rmc.role reason);
    log_decision t ~decision:Dlog.Revoke ~principal:issued.ir_principal
      ~action:("revoke:" ^ issued.rmc.Rmc.role) ~args:issued.rmc.Rmc.args ~rule:reason
      ~creds:[ issued.rmc.Rmc.id ]
      ~env_facts:(List.map render_env_fact issued.env_watch)
      ();
    stop_monitoring t issued;
    unindex_env t issued;
    issued.env_watch <- [];
    unindex_deps t issued
  in
  ignore (Issuer_records.revoke t.records issued.rmc.Rmc.id ~reason ~bookkeeping)

(* ------------------------------------------------------------------ *)
(* Suspect state and anti-entropy reconciliation (DESIGN.md §11)      *)
(* ------------------------------------------------------------------ *)

(* How long a reconciler waits between rounds while the issuer stays
   unreachable. The backoff cap, so a heal is noticed within one cap —
   configure cap < suspect_grace and suspects resolve inside the grace
   window of heal (the chaos invariant). *)
let poll_interval t =
  let cap = t.config.retry.Backoff.cap in
  if cap > 0.0 then cap else 0.05

let trace_role t what (issued : issued_rmc) extra =
  if Obs.tracing t.obs then
    Obs.event t.obs what
      ~labels:
        ([
           ("service", t.sname);
           ("cert", Ident.to_string issued.rmc.Rmc.id);
           ("role", issued.rmc.Rmc.role);
         ]
        @ extra)

(* The mutually recursive core: a watch going silent enters suspect state,
   suspect roles enqueue for reconciliation, reconciliation re-creates
   watches on reinstatement. *)
let rec watch_dep ?replay t issued dep =
  let watch =
    watch_invalidation ?replay t ~issuer:dep.dep_issuer ~cert_id:dep.dep_cert ~on_dead:(function
      | `Revoked why ->
          (* Offline verification has no issuer round trip at presentation
             time, so a definitive revocation learnt here must be remembered
             locally: the poisoned cache entry makes a re-presented revoked
             certificate fail the offline check. *)
          Vcache.invalidate t.cache dep.dep_cert;
          deactivate_rmc t issued ~cascade:true
            ~reason:
              (Printf.sprintf "supporting credential %s invalid: %s"
                 (Ident.to_string dep.dep_cert) why)
      | `Silence ->
          (* The monitor is dead after a miss; retire the handle so
             reinstatement knows to rebuild it. *)
          drop_dep_watch t dep;
          note_silence t issued dep)
  in
  dep.dep_watch <- Some watch

and note_silence t issued dep =
  if t.crashed then ()
  else if t.config.suspect_grace <= 0.0 || Ident.equal dep.dep_issuer t.sid then
    (* Legacy fail-closed-immediately behaviour: silence is revocation.
       Own-issuer credentials never go suspect — local state is always
       reachable, so silence on a local channel is authoritative. *)
    deactivate_rmc t issued ~cascade:true
      ~reason:
        (Printf.sprintf "supporting credential %s invalid: heartbeat missed"
           (Ident.to_string dep.dep_cert))
  else
    enter_suspect t issued
      ~why:(Printf.sprintf "heartbeat missed for %s" (Ident.to_string dep.dep_cert))

and enter_suspect t issued ~why =
  if (not t.crashed) && Option.is_none issued.suspect && Cr.is_valid issued.record then begin
    Obs.Counter.inc t.st.suspects;
    trace_role t "svc.suspect" issued [ ("why", why) ];
    log_decision t ~decision:Dlog.Suspect ~principal:issued.ir_principal
      ~action:("suspect:" ^ issued.rmc.Rmc.role) ~args:issued.rmc.Rmc.args ~rule:why
      ~creds:[ issued.rmc.Rmc.id ] ();
    let s = { sus_timer = None } in
    issued.suspect <- Some s;
    let at = World.now t.world +. Float.max 0.0 t.config.suspect_grace in
    s.sus_timer <-
      Some
        (Engine.schedule_at (World.engine t.world) ~at (fun () ->
             s.sus_timer <- None;
             match issued.suspect with
             | Some s' when s' == s && Cr.is_valid issued.record ->
                 issued.suspect <- None;
                 trace_role t "svc.degrade" issued [ ("why", why) ];
                 deactivate_rmc t issued ~cascade:true
                   ~reason:(Printf.sprintf "fail-closed degradation: %s unresolved within grace" why)
             | Some _ | None -> ()));
    enqueue_reconcile t issued
  end

and enqueue_reconcile t issued =
  if not issued.reconciling then begin
    issued.reconciling <- true;
    Queue.push issued t.recon_queue;
    pump_reconcile t
  end

and pump_reconcile t =
  if (not t.crashed) && t.recon_running < max 1 t.config.reconcile_batch then
    match Queue.take_opt t.recon_queue with
    | None -> ()
    | Some issued ->
        t.recon_running <- t.recon_running + 1;
        World.spawn t.world (fun () -> reconcile_worker t issued);
        pump_reconcile t

(* One round-trip per remote dependency, with the shared backoff policy.
   [Some valid] is authoritative; [None] means the issuer stayed
   unreachable (or does not speak Check_cr) — keep polling, never guess. *)
and check_dep t dep =
  if Ident.equal dep.dep_issuer t.sid then Some (Issuer_records.is_valid t.records dep.dep_cert)
  else
    match
      Backoff.retry t.config.retry (World.rng t.world) ~sleep:Proc.sleep
        ~on_retry:(fun ~attempt:_ ~delay:_ -> Obs.Counter.inc t.st.retries_reconcile)
        (fun () ->
          match
            Network.rpc (World.network t.world) ~src:t.sid ~dst:dep.dep_issuer
              (Protocol.Check_cr { cert_id = dep.dep_cert })
          with
          | Protocol.Cr_status { valid } -> Ok (Some valid)
          | _ -> Ok None
          | exception Network.Rpc_dropped -> Error ())
    with
    | Ok verdict -> verdict
    | Error () -> None

and reconcile_worker t issued =
  let live () = (not t.crashed) && Cr.is_valid issued.record && Option.is_some issued.suspect in
  let rec loop () =
    if live () then begin
      let dead = ref false and unresolved = ref false in
      List.iter
        (fun dep ->
          if live () && not !dead then
            match check_dep t dep with
            | Some true -> ()
            | Some false -> dead := true
            | None -> unresolved := true)
        issued.deps;
      if not (live ()) then ()
      else if !dead then begin
        cancel_suspect t issued;
        Obs.Counter.inc t.st.reconciled_revoked;
        trace_role t "svc.reconcile" issued [ ("outcome", "revoked") ];
        log_decision t ~decision:Dlog.Reconcile ~principal:issued.ir_principal
          ~action:("reconcile:" ^ issued.rmc.Rmc.role) ~args:issued.rmc.Rmc.args ~rule:"revoked"
          ~creds:[ issued.rmc.Rmc.id ] ();
        deactivate_rmc t issued ~cascade:true
          ~reason:"reconciliation: supporting credential revoked at issuer"
      end
      else if !unresolved then begin
        Proc.sleep (poll_interval t);
        loop ()
      end
      else begin
        (* Every dependency vouched for: reinstate. Rebuild the watches the
           silence (or crash) tore down; monitoring resumes from now. *)
        cancel_suspect t issued;
        List.iter (fun dep -> if Option.is_none dep.dep_watch then watch_dep t issued dep) issued.deps;
        Obs.Counter.inc t.st.reconciled_reinstated;
        trace_role t "svc.reconcile" issued [ ("outcome", "reinstated") ];
        log_decision t ~decision:Dlog.Reconcile ~principal:issued.ir_principal
          ~action:("reconcile:" ^ issued.rmc.Rmc.role) ~args:issued.rmc.Rmc.args
          ~rule:"reinstated" ~creds:[ issued.rmc.Rmc.id ] ()
      end
    end
  in
  loop ();
  issued.reconciling <- false;
  t.recon_running <- t.recon_running - 1;
  pump_reconcile t

(* Validation-RPC unreachability is a failure-detector signal too: every
   active role depending on that issuer becomes suspect (Change_events
   worlds have no heartbeat to miss). Gated on a positive grace — under the
   legacy configuration an unreachable issuer only fails the one request. *)
let note_unreachable t issuer =
  if (not t.crashed) && t.config.suspect_grace > 0.0 && not (Ident.equal issuer t.sid) then
    match Ident.Tbl.find_opt t.watchers_by_issuer issuer with
    | None -> ()
    | Some bucket ->
        (* Snapshot: entering suspect state can kick off reconciliation that
           deactivates roles, which unindexes them from this very bucket. *)
        let watchers = Ident.Tbl.fold (fun _ issued acc -> issued :: acc) bucket [] in
        List.iter
          (fun issued ->
            if Cr.is_valid issued.record && Option.is_none issued.suspect then
              enter_suspect t issued
                ~why:(Printf.sprintf "issuer %s unreachable" (Ident.to_string issuer)))
          watchers

(* Every credential check, remote or offline, reports its verdict the same
   way. *)
let trace_verdict t ~cert_id source ok =
  if Obs.tracing t.obs then
    Obs.event t.obs "svc.validate"
      ~labels:
        [
          ("service", t.sname);
          ("cert", Ident.to_string cert_id);
          ("source", source);
          ("ok", if ok then "true" else "false");
        ];
  ok

(* Remote validation with optional caching (Sect. 4, experiment E3).

   Positive verdicts are cached with an invalidation watch on the issuer's
   event channel; when that watch reports the certificate dead, the entry
   is converted to a cached negative verdict (revocation is permanent), so
   re-presenting a revoked certificate answers locally instead of issuing
   the callback again. A plain [false] wire verdict is never cached — RMC
   validity depends on the presented session key, not the cert id alone. *)
let validate_remote t ~make_request ~cert_id ~issuer =
  let trace_verdict = trace_verdict t ~cert_id in
  let cached = if t.config.cache_remote_validation then Vcache.lookup t.cache cert_id else None in
  match cached with
  | Some Vcache.Valid -> trace_verdict "cache" true
  | Some Vcache.Invalid -> trace_verdict "cache" false
  | None -> (
      (* Datagram loss must not turn into a spurious denial: retry under the
         shared backoff policy before giving up (the verdict itself is never
         retried — a 'false' answer is authoritative). *)
      let attempt () =
        Obs.Counter.inc t.st.callbacks_out;
        match Network.rpc (World.network t.world) ~src:t.sid ~dst:issuer (make_request ()) with
        | reply -> Ok reply
        | exception Network.Rpc_dropped -> Error ()
      in
      match
        Backoff.retry t.config.retry (World.rng t.world) ~sleep:Proc.sleep
          ~on_retry:(fun ~attempt:_ ~delay:_ -> Obs.Counter.inc t.st.retries_validate)
          attempt
      with
      | Ok (Protocol.Validate_result ok) ->
          if ok && t.config.cache_remote_validation then begin
            Vcache.cache_valid t.cache cert_id;
            if not (Ident.Tbl.mem t.cache_watched cert_id) then begin
              let watch =
                watch_invalidation t ~issuer ~cert_id ~on_dead:(fun cause ->
                    (* Definitive revocation poisons the entry (permanent
                       negative); mere silence only retires it — the verdict
                       became unknown, not false. Under the legacy zero-grace
                       configuration silence keeps its historical meaning. *)
                    (match cause with
                    | `Revoked _ -> Vcache.invalidate t.cache cert_id
                    | `Silence ->
                        if t.config.suspect_grace > 0.0 then Vcache.drop t.cache cert_id
                        else Vcache.invalidate t.cache cert_id);
                    match Ident.Tbl.find_opt t.cache_watched cert_id with
                    | Some w ->
                        Ident.Tbl.remove t.cache_watched cert_id;
                        drop_watch t w
                    | None -> ())
              in
              Ident.Tbl.replace t.cache_watched cert_id watch
            end
          end;
          trace_verdict "callback" ok
      | Ok _ -> trace_verdict "callback" false
      | Error () ->
          note_unreachable t issuer;
          trace_verdict "callback_lost" false)

(* Challenge-response against a claimed public key (Sect. 4.1). *)
let challenge_key t ~dst ~key =
  match Elgamal.public_of_string key with
  | None -> false
  | Some public -> (
      let challenge, pending = Challenge.issue (World.rng t.world) public in
      match
        Network.rpc (World.network t.world) ~src:t.sid ~dst
          (Protocol.Challenge_msg { challenge; key_hint = key })
      with
      | Protocol.Challenge_response response -> Challenge.check pending response
      | _ -> false
      | exception Network.Rpc_dropped -> false)

(* Validates every presented credential, returning solver candidates.
   Invalid credentials are dropped (and counted): a wallet may legitimately
   contain certificates that have expired or been revoked. *)
let validate_presented t ~src ~session_key (creds : Protocol.credentials) =
  (* Zero-RPC verification (DESIGN.md §12): when the presenting issuer has
     an enrolled key chain, the signature is checked locally against the
     domain root and no callback is made. A chain in hand is authoritative
     for *authenticity*; freshness still comes from the dep watches
     installed after the grant (and from the poisoned cache for revocations
     this service has already witnessed). Issuers without a chain — HMAC
     signers, decommissioned issuers — are validated by callback. *)
  (* The certificate's event channel retains its Invalidated notice, so a
     verifier that never watched this certificate still sees the revocation
     at presentation time — a push-based revocation list. A partition hides
     the tombstone like it hides the live event; the heartbeat / suspect
     machinery bounds that staleness as usual. *)
  let revoked_on_channel ~issuer ~cert_id =
    match
      Broker.retained (World.broker t.world) (Cr.topic_of ~issuer ~cert_id) ~reader:t.sid
    with
    | Some (Protocol.Invalidated _) -> true
    | Some _ | None -> false
  in
  let offline_verdict ~issuer cert_id verify =
    Obs.Counter.inc t.st.offline_validations;
    trace_verdict t ~cert_id "offline"
      (Vcache.lookup t.cache cert_id <> Some Vcache.Invalid
      && (not (revoked_on_channel ~issuer ~cert_id))
      && verify ())
  in
  let rmc_ok (rmc : Rmc.t) =
    if Ident.equal rmc.issuer t.sid then verify_own_rmc t ~principal_key:session_key rmc
    else
      match issuer_chain t rmc.issuer with
      | Some chain ->
          offline_verdict ~issuer:rmc.issuer rmc.id (fun () ->
              Signed.verify_rmc ~address:t.root_address ~chain ~principal_key:session_key rmc)
      | None ->
          validate_remote t ~cert_id:rmc.id ~issuer:rmc.issuer ~make_request:(fun () ->
              Protocol.Validate_rmc { rmc; principal_key = session_key })
  in
  let appt_ok (appt : Appointment.t) =
    (if Ident.equal appt.issuer t.sid then verify_own_appt t appt
     else
       match issuer_chain t appt.issuer with
       | Some chain ->
           offline_verdict ~issuer:appt.issuer appt.id (fun () ->
               Signed.verify_appointment ~address:t.root_address ~chain ~now:(World.now t.world)
                 appt)
       | None ->
           validate_remote t ~cert_id:appt.id ~issuer:appt.issuer ~make_request:(fun () ->
               Protocol.Validate_appt { appt }))
    && ((not t.config.challenge_appointment_holders)
       (* Prove possession of the long-lived holder key: defeats stolen
          appointment certificates (Sect. 4.1). *)
       || challenge_key t ~dst:src ~key:appt.holder)
  in
  let keep valid =
    List.filter (fun c ->
        let ok = valid c in
        if not ok then Obs.Counter.inc t.st.validation_failures;
        ok)
  in
  let keep_rmcs = keep rmc_ok creds.rmcs in
  let keep_appts = keep appt_ok creds.appointments in
  let rmc_creds =
    List.map
      (fun (rmc : Rmc.t) ->
        { Solve.cred_id = rmc.id; issuer = rmc.issuer; cred_name = rmc.role; cred_args = rmc.args })
      keep_rmcs
  in
  let appt_creds =
    List.map
      (fun (appt : Appointment.t) ->
        {
          Solve.cred_id = appt.id;
          issuer = appt.issuer;
          cred_name = appt.kind;
          cred_args = appt.args;
        })
      keep_appts
  in
  (rmc_creds, appt_creds)

(* Candidate credentials indexed by (issuer, name): built once per request,
   then each rule condition looks up exactly its matching candidates instead
   of filtering the whole presented wallet (a rule with many conditions over
   a fat wallet was quadratic). Presentation order is preserved within a
   bucket, so proof search tries credentials in the order presented. *)
let index_creds creds =
  let key issuer name = Ident.to_string issuer ^ "\x00" ^ name in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (c : Solve.cred) ->
      let k = key c.issuer c.cred_name in
      match Hashtbl.find_opt tbl k with
      | Some bucket -> bucket := c :: !bucket
      | None -> Hashtbl.replace tbl k (ref [ c ]))
    creds;
  Hashtbl.iter (fun _ bucket -> bucket := List.rev !bucket) tbl;
  fun issuer name -> match Hashtbl.find_opt tbl (key issuer name) with
    | Some bucket -> !bucket
    | None -> []

let solver_context t ~rmc_creds ~appt_creds =
  let find_rmc = index_creds rmc_creds in
  let find_appt = index_creds appt_creds in
  let resolve = function
    | None -> Some t.sid
    | Some symbolic -> World.resolve t.world symbolic
  in
  let by_issuer find service name =
    match resolve service with None -> [] | Some issuer -> find issuer name
  in
  {
    Solve.find_rmcs = (fun ~service ~name -> by_issuer find_rmc service name);
    find_appointments = (fun ~issuer ~name -> by_issuer find_appt issuer name);
    env_check = Env.check t.env;
    env_enumerate = Env.enumerate t.env;
  }

(* ------------------------------------------------------------------ *)
(* Administrative revocation (Fig. 5)                                 *)
(* ------------------------------------------------------------------ *)

(* An appointment holds no monitoring state here: revoking one costs the
   counter alone. *)
let count_revocation t _record = Obs.Counter.inc t.st.revocations

let revoke_certificate t cert_id ~reason =
  match Ident.Tbl.find_opt t.rmcs cert_id with
  | Some issued ->
      let was_valid = Cr.is_valid issued.record in
      deactivate_rmc t issued ~reason ~cascade:false;
      was_valid
  | None -> Issuer_records.revoke t.records cert_id ~reason ~bookkeeping:(count_revocation t)

let rotate_secret t = Issuer_key.rotate t.key ~now:(World.now t.world)

let decommission t ~reason =
  (* Withdraw every credential this service ever issued; dependents
     everywhere collapse through the usual channels. *)
  let count = ref 0 in
  Ident.Tbl.iter
    (fun _ issued ->
      if Cr.is_valid issued.record then begin
        deactivate_rmc t issued ~reason ~cascade:false;
        incr count
      end)
    t.rmcs;
  List.iter
    (fun cert_id ->
      if Issuer_records.revoke t.records cert_id ~reason ~bookkeeping:(count_revocation t) then
        incr count)
    (Issuer_records.valid_appointments t.records);
  (* This service also holds state about *other* services' certificates:
     invalidation watches backing the validation cache. A decommissioned
     service must not keep subscriptions or heartbeat monitors alive on
     foreign event channels, nor keep serving cached verdicts. *)
  Ident.Tbl.iter (fun _ watch -> drop_watch t watch) t.cache_watched;
  Ident.Tbl.reset t.cache_watched;
  Vcache.clear t.cache;
  (* Withdraw the issuing-key chain too: a decommissioned issuer's
     certificates must stop verifying offline, not just stop answering
     callbacks. *)
  Issuer_key.withdraw t.key;
  !count

(* ------------------------------------------------------------------ *)
(* Membership monitoring for a freshly issued RMC                     *)
(* ------------------------------------------------------------------ *)

(* Time-dependent constraints change truth value spontaneously: schedule a
   re-check at the earliest possible flip. One timer slot per constraint —
   re-arming replaces the pending handle rather than growing the watch list
   without bound. Also used by restart to rebuild timers. *)

(* Membership re-checks distinguish granting from holding: a predicate
   with a registered hold variant (gate hysteresis, DESIGN.md §16) keeps
   an existing membership alive inside the band even though a fresh
   activation would be denied — a score dithering around the threshold
   must not thrash the revoke cascade. Each retained membership counts as
   a suppressed flap. *)
let env_watch_holds t (name, args) =
  if Env.check t.env name args then true
  else if Env.check_hold t.env name args then begin
    Obs.Counter.inc t.st.flaps_suppressed;
    if Obs.tracing t.obs then
      Obs.event t.obs "svc.flap_suppressed"
        ~labels:[ ("service", t.sname); ("pred", Env.base_name name) ];
    true
  end
  else false

let arm_env_timer t (issued : issued_rmc) (name, args) =
  match Env.next_change_time t.env name args with
  | None -> ()
  | Some at ->
      let slot = ref None in
      let rec arm at =
        slot :=
          Some
            (Engine.schedule_at (World.engine t.world) ~at:(at +. 1e-9) (fun () ->
                 slot := None;
                 if Cr.is_valid issued.record then
                   if not (env_watch_holds t (name, args)) then
                     deactivate_rmc t issued ~cascade:true
                       ~reason:(Printf.sprintf "constraint %s no longer holds" name)
                   else
                     match Env.next_change_time t.env name args with
                     | Some at' -> arm at'
                     | None -> ()))
      in
      arm at;
      issued.watches <- Watch_timer slot :: issued.watches

let monitor_membership t (issued : issued_rmc) (proof : Solve.proof) =
  let membership = proof.rule.membership in
  let watch_cred (cred : Solve.cred) =
    let dep = { dep_issuer = cred.issuer; dep_cert = cred.cred_id; dep_watch = None } in
    issued.deps <- dep :: issued.deps;
    index_dep t issued dep;
    watch_dep t issued dep
  in
  List.iteri
    (fun i support ->
      match support with
      | Solve.By_rmc cred ->
          (* Prerequisite RMCs are ALWAYS monitored: "active roles form
             trees of role dependencies rooted on initial roles. If a
             single initial role is deactivated ... all the active roles
             dependent on it collapse" (Sect. 4). The '*' marker governs
             the other condition kinds. *)
          watch_cred cred
      | Solve.By_appointment cred -> if List.nth membership i then watch_cred cred
      | Solve.By_env _ when not (List.nth membership i) -> ()
      | Solve.By_env (name, args) ->
          issued.env_watch <- (name, args) :: issued.env_watch;
          index_env_watch t issued (name, args);
          arm_env_timer t issued (name, args))
    proof.support

(* One env listener per service re-checks membership constraints touched
   by a change (assert or retract: negated conditions are falsified by
   assertions).

   The listener consults the reverse index. A fact change costs the RMCs
   watching exactly the changed tuple; a poke of a computed predicate
   costs every watcher of that predicate. [env_rechecks] counts RMCs
   examined per change, which is what the scale tests and the E9 benchmark
   assert on. A re-check examines every watch the RMC holds on the changed
   predicate; an RMC an earlier re-check of the same change deactivated is
   skipped. *)
let recheck_env_watches t changed_name issued =
  if Cr.is_valid issued.record then begin
    Obs.Counter.inc t.st.env_rechecks;
    if Obs.tracing t.obs then
      Obs.event t.obs "svc.recheck"
        ~labels:
          [
            ("service", t.sname);
            ("cert", Ident.to_string issued.rmc.Rmc.id);
            ("pred", changed_name);
          ];
    List.iter
      (fun (name, args) ->
        if
          String.equal (Env.base_name name) changed_name
          && Cr.is_valid issued.record
          && not (env_watch_holds t (name, args))
        then
          deactivate_rmc t issued ~cascade:true
            ~reason:(Printf.sprintf "constraint %s no longer holds" name))
      issued.env_watch
  end

let install_env_listener t =
  (* A crashed node reacts to nothing: changes missed while down are caught
     by the restart re-check (anti-entropy), not by live listeners. *)
  Env.on_change t.env (fun changed_name args _change ->
      if not t.crashed then begin
        if Obs.tracing t.obs then
          Obs.event t.obs "env.change" ~labels:[ ("service", t.sname); ("pred", changed_name) ];
        (* A poke names no tuple and finds the [[]] bucket of every watch
           on its computed predicate (see [env_index_key]). The bucket is
           immutable: deactivations replace it in the table, never under
           this traversal. *)
        match Hashtbl.find_opt t.env_index changed_name with
        | None -> ()
        | Some tuples -> (
            match Tuple_tbl.find_opt tuples args with
            | Some bucket ->
                Ident.Map.iter (fun _ issued -> recheck_env_watches t changed_name issued) bucket
            | None -> ())
      end)

(* ------------------------------------------------------------------ *)
(* Crash and restart (DESIGN.md §11)                                  *)
(* ------------------------------------------------------------------ *)

(* Crash drops all in-flight, in-memory state: emitters, watches, monitors,
   suspect timers, the validation cache and the reconciliation queue. What
   survives is the durable part — credential records, issued certificates,
   policy, and each role's dependency list — exactly what restart rebuilds
   from. *)
let crash_node t =
  t.crashed <- true;
  Issuer_records.stop_emitters t.records;
  Ident.Tbl.iter (fun _ issued -> stop_monitoring t issued) t.rmcs;
  Ident.Tbl.iter (fun _ watch -> drop_watch t watch) t.cache_watched;
  Ident.Tbl.reset t.cache_watched;
  Vcache.clear t.cache;
  Queue.iter (fun issued -> issued.reconciling <- false) t.recon_queue;
  Queue.clear t.recon_queue
  (* Running reconcile workers notice [t.crashed] at their next step and
     exit through the normal path, releasing their batch slots. *)

exception Chain_tampered of { service : string; seq : int; why : string }

(* Resume the decision-log chain from its durable mirror: re-verify every
   line and continue appending from the verified head. Verification
   failure means the "disk" was tampered with (or truncated mid-line)
   while the node was down; the service refuses to restart on it —
   building new decisions onto a forged prefix would launder the
   forgery. *)
let resume_chain t =
  match Durable.get (World.durable t.world) (chain_key t) with
  | None -> () (* never wrote anything durable: nothing to resume *)
  | Some blob -> (
      let outcome label =
        Obs.Counter.inc
          (Obs.counter t.obs "audit.chain" ~labels:[ ("service", t.sname); ("outcome", label) ])
      in
      match Dlog.resume ~service:t.sid blob with
      | Ok dlog ->
          outcome "resumed";
          t.dlog <- dlog
      | Error (seq, why) ->
          outcome "tampered";
          raise (Chain_tampered { service = t.sname; seq; why }))

(* Restart rebuilds the active-security machinery from durable records:
   emitters resume for valid certificates, env constraints are re-checked
   (changes missed while down deactivate now), own-issuer prerequisites are
   verified locally, and every role resting on a remote credential becomes
   suspect until anti-entropy reconciliation re-validates it — invalidations
   announced while we were down were never delivered, so trusting the old
   watch state would be fail-open. The durable decision-log chain resumes
   first: if it fails verification the service stays crashed and
   {!Chain_tampered} propagates. *)
let restart_node t =
  resume_chain t;
  t.crashed <- false;
  Issuer_records.resume t.records;
  (* Snapshot: the rebuild may deactivate records, mutating the table. *)
  let live =
    Ident.Tbl.fold (fun _ i acc -> if Cr.is_valid i.record then i :: acc else acc) t.rmcs []
  in
  List.iter
    (fun issued ->
      if Cr.is_valid issued.record then begin
        if
          not
            (List.for_all
               (fun (name, args) ->
                 match env_watch_holds t (name, args) with
                 | ok -> ok
                 | exception Env.Unknown_predicate _ -> false)
               issued.env_watch)
        then
          deactivate_rmc t issued ~cascade:true
            ~reason:"restart: membership constraint no longer holds"
        else if
          List.exists
            (fun dep ->
              Ident.equal dep.dep_issuer t.sid
              && not (Issuer_records.is_valid t.records dep.dep_cert))
            issued.deps
        then
          deactivate_rmc t issued ~cascade:true ~reason:"restart: supporting credential revoked"
        else begin
          List.iter (fun c -> arm_env_timer t issued c) issued.env_watch;
          List.iter
            (fun dep -> if Option.is_none dep.dep_watch then watch_dep ~replay:false t issued dep)
            issued.deps;
          if List.exists (fun dep -> not (Ident.equal dep.dep_issuer t.sid)) issued.deps then
            enter_suspect t issued ~why:"restart: remote credentials unverified"
        end
      end)
    live

(* ------------------------------------------------------------------ *)
(* Request handling                                                   *)
(* ------------------------------------------------------------------ *)

(* Sect. 3 asks that "the identity of the original requester" be recorded
   for audit: every grant enters the decision chain with its principal,
   action, arguments and supporting credentials. A grant that mints a
   certificate leads with it, then the supporting credentials — [oasisctl
   audit why --cert] finds either. *)
let record_grant t ?issued ~principal ~action ~args ~support ~rule () =
  let creds = support_creds support in
  let creds = match issued with Some id -> id :: creds | None -> creds in
  log_decision t ~decision:Dlog.Grant ~principal ~action ~args ~rule ~creds
    ~env_facts:(support_env_facts support) ()

(* Activation, invocation and appointment take one decision (Fig. 2). It
   has five outcomes: an unknown name, a failed challenge, a policy error
   and a missing proof are denied, and a proof is handed to the request's
   [grant]. Denials are decisions too: they enter the chain under [action]
   with the refusal reason in the rule slot, so [oasisctl audit why]
   explains refusals as well as grants. *)
let decide t ~src ~principal ~session_key ~creds ~action ~denied ~challenge ~unknown ~rules
    ~solve ~grant =
  let deny reason denial =
    Obs.Counter.inc denied;
    log_decision t ~decision:Dlog.Deny ~principal ~action ~rule:reason ();
    Protocol.Denied denial
  in
  let policy_error message =
    Log.err (fun m -> m "%s: %s" t.sname message);
    deny message (Protocol.Bad_request message)
  in
  match rules with
  | None ->
      let reason, denial = unknown in
      deny reason denial
  | Some rules -> (
      let rmc_creds, appt_creds = validate_presented t ~src ~session_key creds in
      let ctx = solver_context t ~rmc_creds ~appt_creds in
      if challenge && not (challenge_key t ~dst:src ~key:session_key) then
        deny "challenge failed" Protocol.Challenge_failed
      else
        (* A rule that proves but leaves a head parameter unbound, one
           naming an unknown predicate, or one negating a non-ground
           constraint is a policy configuration error: refuse the request
           and log, never crash the service. *)
        match Seq.find_map (solve ctx) (Queue.to_seq rules) with
        | Some proof -> grant proof
        | None -> deny "no proof" Protocol.No_proof
        | exception Solve.Unbound_head (r, v) ->
            policy_error (Printf.sprintf "policy error: unbound head parameter %s in role %s" v r)
        | exception Solve.Nonground_negation p ->
            policy_error (Printf.sprintf "policy error: non-ground negated constraint %s" p)
        | exception Env.Unknown_predicate p ->
            policy_error (Printf.sprintf "policy error: unknown predicate %s" p))

let seed_from_requested (rule : Rule.activation) requested =
  (* Positional unification of the requested parameter pins. *)
  if requested = [] then Some Term.Subst.empty
  else if List.length requested <> List.length rule.params then None
  else
    List.fold_left2
      (fun acc param pin ->
        match (acc, pin) with
        | None, _ -> None
        | Some subst, None -> Some subst
        | Some subst, Some value -> Term.unify subst param value)
      (Some Term.Subst.empty) rule.params requested

let handle_activate t ~src ~principal ~session_key ~role ~requested ~creds =
  let action = "activate:" ^ role in
  decide t ~src ~principal ~session_key ~creds ~action
    ~denied:t.st.activations_denied ~challenge:t.config.challenge_on_activation
    ~unknown:("unknown role", Protocol.Unknown_role role)
    ~rules:(Hashtbl.find_opt t.activations role)
    ~solve:(fun ctx rule ->
      Option.bind (seed_from_requested rule requested) (fun seed ->
          Solve.activation ~obs:t.obs ctx rule ~seed ()))
    ~grant:(fun (proof : Solve.proof) ->
      let cert_id = World.fresh_cert_id t.world in
      let rmc =
        Issuer_key.issue_rmc t.key ~principal_key:session_key ~id:cert_id ~role
          ~args:proof.role_args ~issued_at:(World.now t.world)
      in
      let record =
        Issuer_records.add t.records ~cert_id ~kind:Cr.Kind_rmc ~principal ~name:role
          ~args:proof.role_args ()
      in
      let issued =
        {
          rmc;
          record;
          initial = proof.rule.initial;
          session_key;
          ir_principal = principal;
          deps = [];
          watches = [];
          env_watch = [];
          suspect = None;
          reconciling = false;
        }
      in
      Ident.Tbl.replace t.rmcs cert_id issued;
      monitor_membership t issued proof;
      record_grant t ~issued:cert_id ~principal ~action ~args:proof.role_args
        ~support:proof.support
        ~rule:(Parser.print_statement (Parser.Activation proof.rule))
        ();
      Obs.Counter.inc t.st.activations_granted;
      Log.debug (fun m ->
          m "%s grants %s(%s) to %a" t.sname role
            (String.concat ", " (List.map Value.to_string proof.role_args))
            Ident.pp principal);
      Protocol.Activate_ok { rmc; initial = proof.rule.initial })

(* Invocation and appointment both prove an authorization rule whose
   parameters are pinned positionally by the requested arguments. *)
let solve_privilege t args ctx (rule : Rule.authorization) =
  Option.bind (Term.unify_args Term.Subst.empty rule.priv_args args) (fun seed ->
      Solve.authorization ~obs:t.obs ctx rule ~seed ()
      |> Option.map (fun (_subst, support) -> (rule, support)))

let handle_invoke t ~src ~principal ~session_key ~privilege ~args ~creds =
  decide t ~src ~principal ~session_key ~creds ~action:("invoke:" ^ privilege)
    ~denied:t.st.invocations_denied ~challenge:t.config.challenge_on_invocation
    ~unknown:("unknown privilege", Protocol.Unknown_privilege privilege)
    ~rules:(Hashtbl.find_opt t.authorizations privilege)
    ~solve:(solve_privilege t args)
    ~grant:(fun (rule, support) ->
      (* A grant logs the bare privilege name. *)
      record_grant t ~principal ~action:privilege ~args ~support
        ~rule:(Parser.print_statement (Parser.Authorization rule))
        ();
      Obs.Counter.inc t.st.invocations_granted;
      let result =
        match Hashtbl.find_opt t.operations privilege with
        | Some operation -> operation ~principal args
        | None -> None
      in
      Protocol.Invoke_ok result)

let handle_appoint t ~src ~principal ~session_key ~kind ~args ~holder ~holder_key ~expires_at
    ~creds =
  let action = "appoint:" ^ kind in
  decide t ~src ~principal ~session_key ~creds ~action ~denied:t.st.appointments_denied
    ~challenge:t.config.challenge_on_invocation
    ~unknown:("unknown appointment kind", Protocol.Unknown_privilege action)
    ~rules:(Hashtbl.find_opt t.appointers kind)
    ~solve:(solve_privilege t args)
    ~grant:(fun (rule, support) ->
      let cert_id = World.fresh_cert_id t.world in
      let appt =
        Issuer_key.issue_appointment t.key ~id:cert_id ~kind ~args ~holder:holder_key
          ~issued_at:(World.now t.world) ?expires_at ()
      in
      let expire () =
        ignore
          (Issuer_records.revoke t.records cert_id ~reason:"expired"
             ~bookkeeping:(count_revocation t))
      in
      ignore
        (Issuer_records.add t.records ~cert_id ~kind:Cr.Kind_appointment ~principal:holder
           ~name:kind ~args
           ?expiry:(Option.map (fun at -> (at, expire)) expires_at)
           ());
      record_grant t ~issued:cert_id ~principal ~action ~args ~support
        ~rule:(Parser.print_statement (Parser.Appointer rule))
        ();
      Obs.Counter.inc t.st.appointments_granted;
      Protocol.Appoint_ok appt)

let handle_deactivate t ~cert_id ~session_key =
  match Ident.Tbl.find_opt t.rmcs cert_id with
  | Some issued when String.equal issued.session_key session_key ->
      deactivate_rmc t issued ~reason:"deactivated by principal" ~cascade:false;
      Protocol.Deactivate_ok
  | Some _ -> Protocol.Denied (Protocol.Bad_credential cert_id)
  | None -> Protocol.Denied (Protocol.Bad_credential cert_id)

let handle_validate_rmc t ~rmc ~principal_key =
  Obs.Counter.inc t.st.callbacks_in;
  Protocol.Validate_result (verify_own_rmc t ~principal_key rmc)

let handle_validate_appt t ~appt =
  Obs.Counter.inc t.st.callbacks_in;
  Protocol.Validate_result (verify_own_appt t appt)

let handle_rpc t ~src msg =
  match msg with
  | Protocol.Activate { principal; session_key; role; requested; creds } ->
      handle_activate t ~src ~principal ~session_key ~role ~requested ~creds
  | Protocol.Invoke { principal; session_key; privilege; args; creds } ->
      handle_invoke t ~src ~principal ~session_key ~privilege ~args ~creds
  | Protocol.Appoint { principal; session_key; kind; args; holder; holder_key; expires_at; creds }
    ->
      handle_appoint t ~src ~principal ~session_key ~kind ~args ~holder ~holder_key ~expires_at
        ~creds
  | Protocol.Deactivate { cert_id; session_key } -> handle_deactivate t ~cert_id ~session_key
  | Protocol.Validate_rmc { rmc; principal_key } -> handle_validate_rmc t ~rmc ~principal_key
  | Protocol.Validate_appt { appt } -> handle_validate_appt t ~appt
  | Protocol.Env_check { pred; args } ->
      (* Answer remote environmental lookups against our database (Sect. 2:
         "database lookup at some service"). Unknown predicates answer
         [false] to the remote — our own policy errors stay local. *)
      Protocol.Env_result (match Env.check t.env pred args with ok -> ok | exception Env.Unknown_predicate _ -> false)
  | Protocol.Check_cr { cert_id } ->
      (* Anti-entropy: answer point-blank from the credential store. Any
         service can vouch for (or disown) the certificates it issued. *)
      Protocol.Cr_status { valid = Issuer_records.is_valid t.records cert_id }
  | Protocol.Activate_ok _ | Protocol.Invoke_ok _ | Protocol.Appoint_ok _
  | Protocol.Deactivate_ok | Protocol.Validate_result _ | Protocol.Challenge_msg _
  | Protocol.Challenge_response _ | Protocol.Env_result _ | Protocol.Cr_status _
  | Protocol.Denied _ ->
      Protocol.Denied (Protocol.Bad_request "not a request")

(* ------------------------------------------------------------------ *)
(* Construction                                                       *)
(* ------------------------------------------------------------------ *)

exception Policy_rejected of Lint.finding list

let install_policy t statements =
  (* Lint the batch as a single open world: cross-service references and
     world-level resolution are a deployment concern (oasisctl lint); what
     must never reach the rule tables are the findings that can only ever
     fail at request time (Lint.install_blocking). *)
  let blocking =
    Lint.check ~closed:false [ Lint.of_statements ~name:t.sname statements ]
    |> List.filter Lint.install_blocking
  in
  if blocking <> [] then raise (Policy_rejected blocking);
  List.iter
    (function
      | Parser.Activation rule -> add_activation_rule t rule
      | Parser.Authorization rule -> add_authorization_rule t rule
      | Parser.Appointer rule -> set_appointer t ~kind:rule.Rule.privilege ~rule)
    statements

let create world ~name ?(config = default_config) ?env ~policy () =
  let sid = World.fresh_service_id world in
  let env =
    match env with Some e -> e | None -> Env.create (Engine.clock (World.engine world))
  in
  let obs = World.obs world in
  let labels = [ ("service", name) ] in
  let counter cname = Obs.counter obs cname ~labels in
  let authority = World.authority world in
  let t =
    {
      world;
      sid;
      sname = name;
      obs;
      config;
      env;
      key =
        Issuer_key.create authority ~rng:(World.rng world) ~subject:sid
          ~offline_sign:config.offline_sign ~now:(World.now world);
      root_address = Signed.address authority;
      activations = Hashtbl.create 16;
      authorizations = Hashtbl.create 16;
      appointers = Hashtbl.create 8;
      operations = Hashtbl.create 8;
      records =
        Issuer_records.create world ~issuer:sid ~is_down:(fun () ->
            Fault.is_crashed (World.fault world) sid);
      rmcs = Ident.Tbl.create 64;
      env_index = Hashtbl.create 16;
      watchers_by_issuer = Ident.Tbl.create 8;
      cache = Vcache.create ~obs ~labels ();
      cache_watched = Ident.Tbl.create 64;
      st =
        {
          activations_granted = counter "service.activations_granted";
          activations_denied = counter "service.activations_denied";
          invocations_granted = counter "service.invocations_granted";
          invocations_denied = counter "service.invocations_denied";
          appointments_granted = counter "service.appointments_granted";
          appointments_denied = counter "service.appointments_denied";
          callbacks_in = counter "service.callbacks_in";
          callbacks_out = counter "service.callbacks_out";
          offline_validations = counter "service.offline_validations";
          validation_failures = counter "service.validation_failures";
          revocations = counter "service.revocations";
          cascade_deactivations = counter "service.cascade_deactivations";
          env_rechecks = counter "service.env_rechecks";
          suspects = counter "svc.suspect";
          reconciled_reinstated =
            Obs.counter obs "svc.reconciled" ~labels:(("outcome", "reinstated") :: labels);
          reconciled_revoked =
            Obs.counter obs "svc.reconciled" ~labels:(("outcome", "revoked") :: labels);
          retries_validate = Obs.counter obs "rpc.retries" ~labels:[ ("site", "validate") ];
          retries_reconcile = Obs.counter obs "rpc.retries" ~labels:[ ("site", "reconcile") ];
          flaps_suppressed = Obs.counter obs "trust.flaps_suppressed" ~labels;
        };
      dlog = Dlog.create ~service:sid;
      crashed = false;
      recon_running = 0;
      recon_queue = Queue.create ();
    }
  in
  (* Seed the chain's durable mirror: the header once, then every logged
     decision appends its own line (see [log_decision]). *)
  Durable.set (World.durable world) (chain_key t) (Dlog.export_header t.dlog);
  install_policy t (Parser.parse_exn policy);
  install_env_listener t;
  (* Bridge the world's live trust assessor behind the [trust_score]
     predicate (shadowing the fail-closed stub Env.create registered), and
     re-check trust-gated roles whenever a score may have moved — the same
     env-change→recheck→revoke chain fact changes drive. The grant check
     demands the full threshold whatever the arity; the hold check (asked
     only for existing memberships, [env_watch_holds]) accepts the
     hysteresis band when a third argument supplies one. *)
  let as_threshold = function
    | Value.Time thr -> Some thr
    | Value.Int thr -> Some (float_of_int thr)
    | Value.Str _ | Value.Bool _ | Value.Id _ -> None
  in
  let score_at_least subject threshold =
    match as_threshold threshold with
    | Some thr -> World.trust_score world subject >= thr
    | None -> false
  in
  Env.register t.env "trust_score" (fun args ->
      match args with
      | [ Value.Id subject; threshold ] | [ Value.Id subject; threshold; _ ] ->
          score_at_least subject threshold
      | _ -> false);
  Env.register_hold t.env "trust_score" (fun args ->
      match args with
      | [ Value.Id subject; threshold ] -> score_at_least subject threshold
      | [ Value.Id subject; threshold; band ] -> (
          match (as_threshold threshold, as_threshold band) with
          | Some thr, Some delta ->
              World.trust_score world subject >= thr -. Float.max 0.0 delta
          | _ -> false)
      | _ -> false);
  World.on_trust_change world (fun _subject ->
      if not t.crashed then Env.poke t.env "trust_score");
  World.register_service world ~name sid;
  Oasis_sim.Network.add_node (World.network world) sid
    {
      on_oneway = (fun ~src:_ _msg -> ());
      on_rpc = (fun ~src msg -> handle_rpc t ~src msg);
    };
  Fault.set_hooks (World.fault world) sid
    ~on_crash:(fun () -> crash_node t)
    ~on_restart:(fun () -> restart_node t);
  t

(* Crash/restart are driven through the world's fault controller so network
   down-state, the broker's partition filter and the service hooks stay in
   lock-step; these are conveniences for tests and application code. *)
let crash t = Fault.crash (World.fault t.world) t.sid
let restart t = Fault.restart (World.fault t.world) t.sid
let is_crashed t = t.crashed

(* Registers [local_name] as a computed predicate answered by [at]'s
   environment over the network. Must be evaluated from within a simulated
   process (true during request handling). A network failure counts as
   "does not hold". *)
let register_remote_predicate t ~local_name ~at ~remote_name =
  Env.register t.env local_name (fun args ->
      match
        Network.rpc (World.network t.world) ~src:t.sid ~dst:at
          (Protocol.Env_check { pred = remote_name; args })
      with
      | Protocol.Env_result ok -> ok
      | _ -> false
      | exception Network.Rpc_dropped -> false)

(* ------------------------------------------------------------------ *)
(* Introspection                                                      *)
(* ------------------------------------------------------------------ *)

let is_valid_certificate t cert_id = Issuer_records.is_valid t.records cert_id

let active_roles t =
  Ident.Tbl.fold
    (fun cert_id issued acc ->
      if Cr.is_valid issued.record then
        (cert_id, issued.rmc.Rmc.role, issued.rmc.Rmc.args, issued.ir_principal) :: acc
      else acc)
    t.rmcs []

let active_roles_named t role =
  List.filter_map
    (fun (record : Cr.t) ->
      if record.Cr.kind = Cr.Kind_rmc && Cr.is_valid record then
        Some (record.Cr.cert_id, record.Cr.args, record.Cr.principal)
      else None)
    (Issuer_records.find_named t.records ~name:role)

let suspect_roles t =
  Ident.Tbl.fold
    (fun cert_id issued acc ->
      if Option.is_some issued.suspect && Cr.is_valid issued.record then
        (cert_id, issued.rmc.Rmc.role) :: acc
      else acc)
    t.rmcs []

let suspect_count t = List.length (suspect_roles t)

let env_watcher_count t predicate =
  match Hashtbl.find_opt t.env_index (Env.base_name predicate) with
  | None -> 0
  | Some tuples ->
      (* An RMC watching several tuples of the predicate counts once. *)
      Tuple_tbl.fold
        (fun _ bucket acc -> Ident.Map.fold (fun id _ acc -> Ident.Set.add id acc) bucket acc)
        tuples Ident.Set.empty
      |> Ident.Set.cardinal

let env_watcher_count_tuple t predicate args =
  let base = Env.base_name predicate in
  match Hashtbl.find_opt t.env_index base with
  | None -> 0
  | Some tuples -> (
      match Tuple_tbl.find_opt tuples (env_index_key t base args) with
      | Some bucket -> Ident.Map.cardinal bucket
      | None -> 0)

let issuer_watcher_count t issuer =
  match Ident.Tbl.find_opt t.watchers_by_issuer issuer with
  | Some bucket -> Ident.Tbl.length bucket
  | None -> 0

let roles_defined t = Hashtbl.fold (fun role _ acc -> role :: acc) t.activations [] |> List.sort compare

let privileges_defined t =
  Hashtbl.fold (fun privilege _ acc -> privilege :: acc) t.authorizations [] |> List.sort compare

let decision_log t = t.dlog

let stats t =
  {
    activations_granted = Obs.Counter.value t.st.activations_granted;
    activations_denied = Obs.Counter.value t.st.activations_denied;
    invocations_granted = Obs.Counter.value t.st.invocations_granted;
    invocations_denied = Obs.Counter.value t.st.invocations_denied;
    appointments_granted = Obs.Counter.value t.st.appointments_granted;
    appointments_denied = Obs.Counter.value t.st.appointments_denied;
    callbacks_in = Obs.Counter.value t.st.callbacks_in;
    callbacks_out = Obs.Counter.value t.st.callbacks_out;
    offline_validations = Obs.Counter.value t.st.offline_validations;
    validation_failures = Obs.Counter.value t.st.validation_failures;
    revocations = Obs.Counter.value t.st.revocations;
    cascade_deactivations = Obs.Counter.value t.st.cascade_deactivations;
    env_rechecks = Obs.Counter.value t.st.env_rechecks;
    suspects = Obs.Counter.value t.st.suspects;
    reconciled_reinstated = Obs.Counter.value t.st.reconciled_reinstated;
    reconciled_revoked = Obs.Counter.value t.st.reconciled_revoked;
    flaps_suppressed = Obs.Counter.value t.st.flaps_suppressed;
  }

