module Ident = Oasis_util.Ident
module Value = Oasis_util.Value
module Backoff = Oasis_util.Backoff
module Proc = Oasis_sim.Proc
module Engine = Oasis_sim.Engine
module Network = Oasis_sim.Network
module Fault = Oasis_sim.Fault
module Broker = Oasis_event.Broker
module Env = Oasis_policy.Env
module Solve = Oasis_policy.Solve
module Cr = Oasis_cert.Credential_record
module Vcache = Oasis_cert.Validation_cache
module Obs = Oasis_obs.Obs
module Dlog = Oasis_trust.Decision_log

let log = Logs.Src.create "oasis.monitor" ~doc:"OASIS active-security monitoring"

module Log = (val Logs.src_log log)

type death = [ `Revoked of string | `Silence ]

(* A service keeps one monitor per issuer it watches anything of, on the
   issuer's feed, and registers each watched certificate under it. The
   monitor is live while [beat_monitors] holds it. *)
type issuer_beats = {
  beat_issuer : Ident.t;
  subscription : Broker.subscription; (* to the issuer's feed *)
  mutable heard : float; (* when the last beat arrived, or the monitor started *)
  mutable deadline_check : Engine.cancel option; (* under heartbeats: the pending miss test *)
  certs : cert_watch list Ident.Tbl.t;
      (* watched cert -> its registrations; the monitor goes with the last *)
  mutable epoch : int option; (* of the last beat heard *)
  mutable fresh : cert_watch list;
      (* registered while cut off from the issuer since the last beat heard *)
}

(* One certificate's registration under its issuer's monitor: a live
   invalidation watch. *)
and cert_watch = {
  beats : issuer_beats;
  cert_id : Ident.t;
  on_dead : death -> unit;
  mutable registered : bool;
}

(* A credential supporting an active role. Durable: it survives a crash
   (unlike its live watch), so restart can rebuild the watch and
   reconciliation knows what to re-validate. *)
type dep = {
  issuer : Ident.t;
  cert : Ident.t;
  mutable watch : cert_watch option; (* None while silent or crashed *)
}

(* An RMC this service granted, by its record (id, role, args, principal),
   with its monitoring state. *)
type role = {
  record : Cr.t;
  mutable deps : dep list;
  mutable env_watch : (string * Value.t list) list;
      (* ground membership env constraints; a name may carry '!' *)
  mutable timers : Engine.cancel option ref list;
      (* one re-check timer slot per time-dependent constraint; re-arming
         replaces the handle in its slot *)
  mutable suspect : Engine.cancel option;
      (* the grace timer while the role is suspect (DESIGN.md §11): its
         failure detector fired but revocation is unconfirmed *)
  mutable reconciling : bool; (* queued or running in the reconciler *)
}

(* Ground facts hash structurally and compare as the env's fact store
   compares them. *)
module Fact_tbl = Hashtbl.Make (struct
  type t = string * Value.t list

  let equal (a, xs) (b, ys) = String.equal a b && List.equal Value.equal xs ys
  let hash = Hashtbl.hash
end)

(* A reverse index from a key to the roles holding it. A bucket is an
   immutable map, so a traversal of one is never disturbed by the
   deactivations it triggers, and the removal that empties a bucket drops
   it from the table. *)
module Index (H : Hashtbl.S) = struct
  let find tbl key = Option.value (H.find_opt tbl key) ~default:Ident.Map.empty
  let add tbl key role =
    H.replace tbl key (Ident.Map.add role.record.Cr.cert_id role (find tbl key))

  let remove tbl key role =
    let bucket = Ident.Map.remove role.record.Cr.cert_id (find tbl key) in
    if Ident.Map.is_empty bucket then H.remove tbl key else H.replace tbl key bucket
end

module By_fact = Index (Fact_tbl)
module By_issuer = Index (Ident.Tbl)

type counters = {
  revocations : Obs.Counter.t;
  cascade_deactivations : Obs.Counter.t;
  env_rechecks : Obs.Counter.t;
  suspects : Obs.Counter.t;
  reconciled_reinstated : Obs.Counter.t;
  reconciled_revoked : Obs.Counter.t;
  retries_reconcile : Obs.Counter.t;
  flaps_suppressed : Obs.Counter.t;
}

type t = {
  world : World.t;
  sid : Ident.t;
  sname : string;
  obs : Obs.t;
  env : Env.t;
  records : Issuer_records.t;
  audit : Audit_trail.t;
  cache : Vcache.t;
  suspect_grace : float;
  reconcile_batch : int;
  retry : Backoff.policy;
  roles : role Ident.Tbl.t; (* active roles only: deactivation drops its role *)
  env_index : role Ident.Map.t Fact_tbl.t;
      (* [env_key] of a ground constraint (predicate base name, fact tuple
         or trust subject) -> roles whose membership rule watches it *)
  by_issuer : role Ident.Map.t Ident.Tbl.t;
      (* remote issuer -> roles holding a dependency on it: an
         unreachable-issuer sweep touches only those *)
  cache_watches : cert_watch Ident.Tbl.t; (* remote cert id -> invalidation watch *)
  beat_monitors : issuer_beats Ident.Tbl.t; (* issuer -> its monitor *)
  st : counters;
  mutable reconcilers : int;
  reconcile_queue : role Queue.t;
      (* at most [reconcile_batch] suspect roles re-validate concurrently;
         the rest queue *)
}

let counters t = t.st
let is_down t = Fault.is_crashed (World.fault t.world) t.sid

(* The one own-vs-remote test. Local state is always reachable: an own
   dependency is never indexed by issuer, never suspect, and is checked
   against the credential records directly. *)
let remote t issuer = not (Ident.equal issuer t.sid)

(* What silence means, decided once for dependency watches, cache watches
   and unreachable issuers alike: under the legacy zero grace, and on a
   local channel, silence is revocation; otherwise it only makes the
   credential's status unknown until reconciliation asks its issuer. *)
let silence_revokes t issuer = t.suspect_grace <= 0.0 || not (remote t issuer)

let trace_role t what role extra =
  if Obs.tracing t.obs then
    Obs.event t.obs what
      ~labels:
        ([
           ("service", t.sname);
           ("cert", Ident.to_string role.record.Cr.cert_id);
           ("role", role.record.Cr.name);
         ]
        @ extra)

(* ------------------------------------------------------------------ *)
(* Invalidation watches                                               *)
(* ------------------------------------------------------------------ *)

(* The issuer's revoked record is the tombstone: a verifier that never
   watched this certificate still sees the revocation at presentation
   time. A partition hides it like it hides the beat; the epoch gap, the
   issuer's re-sent beat and the suspect machinery bound that staleness. *)
let tombstone t ~issuer ~cert_id = World.revocation t.world ~issuer ~cert_id ~reader:t.sid

(* Stops an issuer's monitor; a later watch on that issuer starts anew.
   Idempotent. *)
let retire t ib =
  Broker.unsubscribe (World.broker t.world) ib.subscription;
  Option.iter (Engine.cancel (World.engine t.world)) ib.deadline_check;
  ib.deadline_check <- None;
  match Ident.Tbl.find_opt t.beat_monitors ib.beat_issuer with
  | Some current when current == ib -> Ident.Tbl.remove t.beat_monitors ib.beat_issuer
  | Some _ | None -> ()

(* Takes one registration off its issuer's monitor, and the monitor down
   with its last one. *)
let detach t cw =
  if cw.registered then begin
    cw.registered <- false;
    let ib = cw.beats in
    (match List.filter (fun r -> r != cw) (Ident.Tbl.find ib.certs cw.cert_id) with
    | [] -> Ident.Tbl.remove ib.certs cw.cert_id
    | rest -> Ident.Tbl.replace ib.certs cw.cert_id rest);
    if Ident.Tbl.length ib.certs = 0 then retire t ib
  end

(* Every registration of [cert_id] learns how it died, in the order they
   were made. All are detached before any learns it: a dead credential
   stays dead, and an [on_dead] need not detach its own. *)
let kill t ib cert_id death =
  match Ident.Tbl.find_opt ib.certs cert_id with
  | None -> ()
  | Some regs ->
      let regs = List.rev regs in
      List.iter (detach t) regs;
      List.iter (fun cw -> cw.on_dead death) regs

(* Watched certificates in id order, so a sweep is reproducible. *)
let watched_certs ib =
  Ident.Tbl.fold (fun cert_id _ acc -> cert_id :: acc) ib.certs [] |> List.sort Ident.compare

let check_tombstone t ib cert_id =
  match tombstone t ~issuer:ib.beat_issuer ~cert_id with
  | Some reason -> kill t ib cert_id (`Revoked reason)
  | None -> ()

(* The next epoch lists what was revoked since the last. Any other epoch —
   a beat lost to a partition, a beat the issuer re-sent, an issuer that
   restarted and counts from 1 again, or the first beat of a monitor that
   joined the feed not knowing where it stood — means revocations may have
   gone unheard: every watched certificate's tombstone is read, locally. A certificate registered while a partition
   hid its tombstone has it read again now: the beat just reached the
   reader, so the partition is gone. *)
let on_beat t ib ~epoch ~revoked =
  let gap = match ib.epoch with Some last -> epoch <> last + 1 | None -> true in
  let fresh = ib.fresh in
  ib.epoch <- Some epoch;
  ib.fresh <- [];
  if gap then List.iter (check_tombstone t ib) (watched_certs ib)
  else begin
    List.iter
      (fun cert_id ->
        if Ident.Tbl.mem ib.certs cert_id then
          let reason =
            Option.value (tombstone t ~issuer:ib.beat_issuer ~cert_id) ~default:"revoked"
          in
          kill t ib cert_id (`Revoked reason))
      revoked;
    List.iter (fun cw -> if cw.registered then check_tombstone t ib cw.cert_id) (List.rev fresh)
  end

(* The issuer fell silent for a deadline: the monitor stops, and every
   certificate watched there hears [`Silence]. *)
let on_silence t ib =
  retire t ib;
  Obs.Counter.inc (Obs.counter t.obs "hb.misses");
  if Obs.tracing t.obs then
    Obs.event t.obs "hb.miss" ~labels:[ ("topic", Issuer_records.beat_topic ib.beat_issuer) ];
  List.iter (fun cert_id -> kill t ib cert_id `Silence) (watched_certs ib)

(* Arms the miss test for the earliest instant a miss could be declared,
   and re-arms it while beats keep coming. The test compares [heard]
   against the snapshot taken when arming — never a float subtraction
   against the deadline, which can disagree with the scheduled instant by
   an ulp and loop at a fixed virtual time. *)
let rec arm_deadline t ib deadline =
  let snapshot = ib.heard in
  let at = Float.max (snapshot +. deadline) (World.now t.world) in
  ib.deadline_check <-
    Some
      (Engine.schedule_at (World.engine t.world) ~at (fun () ->
           ib.deadline_check <- None;
           if ib.heard = snapshot then on_silence t ib else arm_deadline t ib deadline))

(* Under heartbeats the monitor fails everything watched there after a
   deadline of silence; under change events the feed has no period, so
   silence means nothing. A beat reaches the issuer's current monitor: a
   retired one has unsubscribed. *)
let issuer_beats t ~issuer =
  match Ident.Tbl.find_opt t.beat_monitors issuer with
  | Some ib -> ib
  | None ->
      let subscription =
        Broker.subscribe (World.broker t.world) (Issuer_records.beat_topic issuer) ~owner:t.sid
          (fun _topic { Protocol.epoch; revoked } ->
            Option.iter
              (fun ib ->
                ib.heard <- World.now t.world;
                on_beat t ib ~epoch ~revoked)
              (Ident.Tbl.find_opt t.beat_monitors issuer))
      in
      let ib =
        {
          beat_issuer = issuer;
          subscription;
          heard = World.now t.world;
          deadline_check = None;
          certs = Ident.Tbl.create 16;
          (* Joining the feed, learn where it stands: every later beat
             shows whether one was missed. *)
          epoch = World.feed_epoch t.world ~issuer ~reader:t.sid;
          fresh = [];
        }
      in
      Ident.Tbl.replace t.beat_monitors issuer ib;
      (match World.monitoring t.world with
      | Heartbeats { deadline; _ } -> arm_deadline t ib deadline
      | Change_events -> ());
      ib

(* Starts an invalidation watch on a certificate, for a role dependency or
   a cached verdict: a registration under the issuer's one monitor.
   [on_dead] learns how the credential died: [`Revoked reason] is
   definitive (the issuer said so); [`Silence] is a failure-detector
   verdict (heartbeats stopped), which [silence_revokes] interprets.

   A fresh watch picks up a revocation made before it started: a
   certificate verified offline was never shown to its issuer, and a
   callback verdict can be overtaken by a revocation published while the
   reply was in flight. The tombstone is read on the next engine step, so
   the caller holds the watch before it fires; if a partition hides it, the
   next beat to reach this service reads it again. Only the restart rebuild
   opts out ([replay = false]): its roles go suspect and reconciliation
   asks the issuer instead. *)
let watch ?(replay = true) t ~issuer ~cert_id ~on_dead =
  let ib = issuer_beats t ~issuer in
  let cw = { beats = ib; cert_id; on_dead; registered = true } in
  Ident.Tbl.replace ib.certs cert_id
    (cw :: Option.value (Ident.Tbl.find_opt ib.certs cert_id) ~default:[]);
  if replay then
    if Fault.is_cut (World.fault t.world) issuer t.sid then ib.fresh <- cw :: ib.fresh
    else if Option.is_some (tombstone t ~issuer ~cert_id) then
      ignore
        (Engine.schedule (World.engine t.world) ~after:0.0 (fun () ->
             if cw.registered then check_tombstone t ib cert_id));
  cw

(* A positive callback verdict is cached with an invalidation watch on the
   issuer's channel. Definitive revocation poisons the entry (a permanent
   negative); silence that does not revoke only retires it — the verdict
   became unknown, not false. *)
let cache_valid t ~issuer presented =
  let cert_id = Vcache.presented_id presented in
  Vcache.cache_valid t.cache presented;
  if not (Ident.Tbl.mem t.cache_watches cert_id) then
    Ident.Tbl.replace t.cache_watches cert_id
      (watch t ~issuer ~cert_id ~on_dead:(fun cause ->
           (match cause with
           | `Silence when not (silence_revokes t issuer) -> Vcache.drop t.cache cert_id
           | `Revoked _ | `Silence -> Vcache.invalidate t.cache cert_id);
           Ident.Tbl.remove t.cache_watches cert_id))

(* Releases every cache watch and the cache with them: a decommissioned or
   crashed service keeps no subscription or heartbeat monitor on foreign
   channels and serves no cached verdict. *)
let drop_cache t =
  Ident.Tbl.iter (fun _ w -> detach t w) t.cache_watches;
  Ident.Tbl.reset t.cache_watches;
  Vcache.clear t.cache

(* ------------------------------------------------------------------ *)
(* Deactivation teardown (Fig. 5)                                     *)
(* ------------------------------------------------------------------ *)

(* The env index keys a watch by what its change announcement names. A
   leading '!' is stripped, so a negated watch shares the bucket of its
   fact. A fact change names its whole tuple; a trust change names only its
   subject ({!World.on_trust_change}), so [trust_score(u, ...)] is keyed
   [[u]] whatever its threshold and band. *)
let env_key (name, args) =
  match (Env.base_name name, args) with
  | "trust_score", subject :: _ -> ("trust_score", [ subject ])
  | base, _ -> (base, args)

let drop_dep_watch t dep =
  match dep.watch with
  | Some w ->
      dep.watch <- None;
      detach t w
  | None -> ()

let cancel_suspect t role =
  match role.suspect with
  | Some timer ->
      Engine.cancel (World.engine t.world) timer;
      role.suspect <- None
  | None -> ()

(* Tears down a role's in-memory monitoring — suspect timer, dependency
   watches, env timers — on deactivation and on crash alike. Its emitter is
   the issuer records' to stop. *)
let stop_monitoring t role =
  cancel_suspect t role;
  List.iter (drop_dep_watch t) role.deps;
  List.iter (fun slot -> Option.iter (Engine.cancel (World.engine t.world)) !slot) role.timers;
  role.timers <- []

(* Deactivation revokes the RMC's credential record. Between the flip and
   the announcement on its channel, the role's own state goes: counters,
   the svc.revoke event, the Revoke decision record, its monitoring, its
   index entries and the role itself. *)
let deactivate t role ~reason ~cascade =
  let bookkeeping _record =
    Obs.Counter.inc t.st.revocations;
    if cascade then Obs.Counter.inc t.st.cascade_deactivations;
    if Obs.tracing t.obs then
      trace_role t "svc.revoke" role
        [ ("cascade", if cascade then "true" else "false"); ("reason", reason) ];
    Log.debug (fun m ->
        m "%s deactivates %s (%s): %s" t.sname
          (Ident.to_string role.record.Cr.cert_id)
          role.record.Cr.name reason);
    Audit_trail.log t.audit ~decision:Dlog.Revoke ~principal:role.record.Cr.principal
      ~action:("revoke:" ^ role.record.Cr.name) ~args:role.record.Cr.args ~rule:reason
      ~creds:[ role.record.Cr.cert_id ]
      ~env_facts:(List.map Audit_trail.render_env_fact role.env_watch)
      ();
    stop_monitoring t role;
    List.iter (fun c -> By_fact.remove t.env_index (env_key c) role) role.env_watch;
    role.env_watch <- [];
    List.iter (fun dep -> By_issuer.remove t.by_issuer dep.issuer role) role.deps;
    Ident.Tbl.remove t.roles role.record.Cr.cert_id
  in
  ignore (Issuer_records.revoke t.records role.record.Cr.cert_id ~reason ~bookkeeping)

(* ------------------------------------------------------------------ *)
(* Env constraints                                                    *)
(* ------------------------------------------------------------------ *)

(* Membership re-checks distinguish granting from holding: a predicate
   with a registered hold variant (gate hysteresis, DESIGN.md §16) keeps
   an existing membership alive inside the band even though a fresh
   activation would be denied — a score dithering around the threshold
   must not thrash the revoke cascade. Each retained membership counts as
   a suppressed flap. A predicate the env no longer knows fails closed. *)
let holds t (name, args) =
  match
    Env.check t.env name args
    || Env.check_hold t.env name args
       && begin
            Obs.Counter.inc t.st.flaps_suppressed;
            if Obs.tracing t.obs then
              Obs.event t.obs "svc.flap_suppressed"
                ~labels:[ ("service", t.sname); ("pred", Env.base_name name) ];
            true
          end
  with
  | ok -> ok
  | exception Env.Unknown_predicate _ -> false

(* The one env re-check, for the env timers, the env listener and restart:
   the first constraint [select] picks that no longer holds deactivates the
   role, with [why name] as the reason. Returns whether it did. *)
let recheck_env t role ~why select =
  List.exists
    (fun ((name, _) as c) ->
      select c
      && Cr.is_valid role.record
      && (not (holds t c))
      && begin
           deactivate t role ~cascade:true ~reason:(why name);
           true
         end)
    role.env_watch

let no_longer_holds name = Printf.sprintf "constraint %s no longer holds" name

(* Time-dependent constraints change truth value spontaneously: schedule a
   re-check at the earliest possible flip, and re-arm in the same slot
   while the constraint holds. *)
let arm_env_timer t role ((name, args) as c) =
  match Env.next_change_time t.env name args with
  | None -> ()
  | Some at ->
      let slot = ref None in
      let rec arm at =
        slot :=
          Some
            (Engine.schedule_at (World.engine t.world) ~at:(at +. 1e-9) (fun () ->
                 slot := None;
                 (* [c] is the very element of [role.env_watch] this timer
                    re-checks. *)
                 if
                   Cr.is_valid role.record
                   && not (recheck_env t role ~why:no_longer_holds (( == ) c))
                 then Option.iter arm (Env.next_change_time t.env name args)))
      in
      arm at;
      role.timers <- slot :: role.timers

(* The env and trust listeners re-check the roles watching exactly the
   changed key: a fact tuple, or a trust subject (see [env_key]).
   [env_rechecks] counts roles examined per change, which is what the scale
   tests and the E9 benchmark assert on; a role an earlier re-check of the
   same change deactivated is skipped. A crashed node reacts to nothing:
   changes missed while down are caught by the restart re-check. *)
let on_env_change t changed args =
  if not (is_down t) then begin
    if Obs.tracing t.obs then
      Obs.event t.obs "env.change" ~labels:[ ("service", t.sname); ("pred", changed) ];
    Ident.Map.iter
      (fun _ role ->
        if Cr.is_valid role.record then begin
          Obs.Counter.inc t.st.env_rechecks;
          if Obs.tracing t.obs then
            Obs.event t.obs "svc.recheck"
              ~labels:
                [
                  ("service", t.sname);
                  ("cert", Ident.to_string role.record.Cr.cert_id);
                  ("pred", changed);
                ];
          ignore
            (recheck_env t role ~why:no_longer_holds (fun (name, _) ->
                 String.equal (Env.base_name name) changed))
        end)
      (By_fact.find t.env_index (changed, args))
  end

(* ------------------------------------------------------------------ *)
(* Suspect state and anti-entropy reconciliation (DESIGN.md §11)      *)
(* ------------------------------------------------------------------ *)

(* How long a reconciler waits between rounds while the issuer stays
   unreachable. The backoff cap, so a heal is noticed within one cap —
   configure cap < suspect_grace and suspects resolve inside the grace
   window of heal (the chaos invariant). *)
let poll_interval t =
  let cap = t.retry.Backoff.cap in
  if cap > 0.0 then cap else 0.05

let dead_support dep why =
  Printf.sprintf "supporting credential %s invalid: %s" (Ident.to_string dep.cert) why

(* The mutually recursive core: a watch going silent enters suspect state,
   suspect roles enqueue for reconciliation, reconciliation re-creates
   watches on reinstatement. *)
let rec watch_dep ?replay t role dep =
  dep.watch <-
    Some
      (watch ?replay t ~issuer:dep.issuer ~cert_id:dep.cert ~on_dead:(function
        | `Revoked why ->
            (* Offline verification has no issuer round trip at presentation
               time, so a definitive revocation learnt here must be
               remembered locally: the poisoned cache entry makes a
               re-presented revoked certificate fail the offline check. *)
            Vcache.invalidate t.cache dep.cert;
            deactivate t role ~cascade:true ~reason:(dead_support dep why)
        | `Silence ->
            (* The monitor is dead after a miss; retire the handle so
               reinstatement knows to rebuild it. *)
            drop_dep_watch t dep;
            if is_down t then ()
            else if silence_revokes t dep.issuer then
              deactivate t role ~cascade:true ~reason:(dead_support dep "heartbeat missed")
            else
              enter_suspect t role
                ~why:(Printf.sprintf "heartbeat missed for %s" (Ident.to_string dep.cert))))

and enter_suspect t role ~why =
  if (not (is_down t)) && Option.is_none role.suspect && Cr.is_valid role.record then begin
    Obs.Counter.inc t.st.suspects;
    trace_role t "svc.suspect" role [ ("why", why) ];
    Audit_trail.log t.audit ~decision:Dlog.Suspect ~principal:role.record.Cr.principal
      ~action:("suspect:" ^ role.record.Cr.name) ~args:role.record.Cr.args ~rule:why
      ~creds:[ role.record.Cr.cert_id ] ();
    (* Resolved by reconciliation (reinstate or revoke), which cancels the
       timer, or by the timer: fail-closed degradation. *)
    let at = World.now t.world +. Float.max 0.0 t.suspect_grace in
    role.suspect <-
      Some
        (Engine.schedule_at (World.engine t.world) ~at (fun () ->
             role.suspect <- None;
             if Cr.is_valid role.record then begin
               trace_role t "svc.degrade" role [ ("why", why) ];
               deactivate t role ~cascade:true
                 ~reason:(Printf.sprintf "fail-closed degradation: %s unresolved within grace" why)
             end));
    enqueue_reconcile t role
  end

and enqueue_reconcile t role =
  if not role.reconciling then begin
    role.reconciling <- true;
    Queue.push role t.reconcile_queue;
    pump_reconcile t
  end

and pump_reconcile t =
  if (not (is_down t)) && t.reconcilers < max 1 t.reconcile_batch then
    match Queue.take_opt t.reconcile_queue with
    | None -> ()
    | Some role ->
        t.reconcilers <- t.reconcilers + 1;
        World.spawn t.world (fun () -> reconcile_worker t role);
        pump_reconcile t

(* One round-trip per remote dependency, with the shared backoff policy.
   [Some valid] is authoritative; [None] means the issuer stayed
   unreachable (or does not speak Check_cr) — keep polling, never guess. *)
and check_dep t dep =
  if not (remote t dep.issuer) then Some (Issuer_records.is_valid t.records dep.cert)
  else
    match
      Backoff.retry t.retry (World.rng t.world) ~sleep:Proc.sleep
        ~on_retry:(fun ~attempt:_ ~delay:_ -> Obs.Counter.inc t.st.retries_reconcile)
        (fun () ->
          match
            Network.rpc (World.network t.world) ~src:t.sid ~dst:dep.issuer
              (Protocol.Check_cr { cert_id = dep.cert })
          with
          | Protocol.Cr_status { valid } -> Ok (Some valid)
          | _ -> Ok None
          | exception Network.Rpc_dropped -> Error ())
    with
    | Ok verdict -> verdict
    | Error () -> None

and reconcile_worker t role =
  let live () = (not (is_down t)) && Cr.is_valid role.record && Option.is_some role.suspect in
  let reconciled outcome =
    cancel_suspect t role;
    trace_role t "svc.reconcile" role [ ("outcome", outcome) ];
    Audit_trail.log t.audit ~decision:Dlog.Reconcile ~principal:role.record.Cr.principal
      ~action:("reconcile:" ^ role.record.Cr.name) ~args:role.record.Cr.args ~rule:outcome
      ~creds:[ role.record.Cr.cert_id ] ()
  in
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
        role.deps;
      if not (live ()) then ()
      else if !dead then begin
        Obs.Counter.inc t.st.reconciled_revoked;
        reconciled "revoked";
        deactivate t role ~cascade:true
          ~reason:"reconciliation: supporting credential revoked at issuer"
      end
      else if !unresolved then begin
        Proc.sleep (poll_interval t);
        loop ()
      end
      else begin
        (* Every dependency vouched for: reinstate. Rebuild the watches the
           silence (or crash) tore down; monitoring resumes from now. *)
        cancel_suspect t role;
        List.iter (fun dep -> if Option.is_none dep.watch then watch_dep t role dep) role.deps;
        Obs.Counter.inc t.st.reconciled_reinstated;
        reconciled "reinstated"
      end
    end
  in
  loop ();
  role.reconciling <- false;
  t.reconcilers <- t.reconcilers - 1;
  pump_reconcile t

(* Validation-RPC unreachability is a failure-detector signal too: every
   active role depending on that issuer becomes suspect (Change_events
   worlds have no heartbeat to miss). Where silence revokes, an
   unreachable issuer only fails the one request. *)
let note_unreachable t issuer =
  if (not (is_down t)) && not (silence_revokes t issuer) then
    Ident.Map.iter
      (fun _ role ->
        enter_suspect t role ~why:(Printf.sprintf "issuer %s unreachable" (Ident.to_string issuer)))
      (By_issuer.find t.by_issuer issuer)

(* ------------------------------------------------------------------ *)
(* Granting, revoking                                                 *)
(* ------------------------------------------------------------------ *)

let grant t record (proof : Solve.proof) =
  let role =
    {
      record;
      deps = [];
      env_watch = [];
      timers = [];
      suspect = None;
      reconciling = false;
    }
  in
  Ident.Tbl.replace t.roles record.Cr.cert_id role;
  let watch_cred (cred : Solve.cred) =
    let dep = { issuer = cred.issuer; cert = cred.cred_id; watch = None } in
    role.deps <- dep :: role.deps;
    if remote t dep.issuer then By_issuer.add t.by_issuer dep.issuer role;
    watch_dep t role dep
  in
  let membership = proof.rule.membership in
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
          let c = (name, args) in
          role.env_watch <- c :: role.env_watch;
          By_fact.add t.env_index (env_key c) role;
          arm_env_timer t role c)
    proof.support

let revoke t cert_id ~reason =
  match Ident.Tbl.find_opt t.roles cert_id with
  | Some role ->
      deactivate t role ~reason ~cascade:false;
      true
  | None ->
      (* An appointment holds no monitoring state: revoking one costs the
         counter alone. A dead role's RMC is refused like a revoked
         appointment. *)
      Issuer_records.revoke t.records cert_id ~reason ~bookkeeping:(fun _ ->
          Obs.Counter.inc t.st.revocations)

(* A role a cascade already collapsed is gone from [roles], but its RMC
   stays issued: the principal releasing it is told it is released, and
   drops it from the session. *)
let release t cert_id ~session_key =
  match Issuer_records.certificate t.records cert_id with
  | Some (Vcache.Rmc (_, issued_to)) when String.equal issued_to session_key ->
      Option.iter
        (fun role -> deactivate t role ~reason:"deactivated by principal" ~cascade:false)
        (Ident.Tbl.find_opt t.roles cert_id);
      true
  | Some _ | None -> false

(* The active roles in certificate-id order, so a walk is reproducible and
   undisturbed by the deactivations it triggers. *)
let roles_by_id t =
  Ident.Tbl.fold (fun _ role acc -> role :: acc) t.roles []
  |> List.sort (fun a b -> Ident.compare a.record.Cr.cert_id b.record.Cr.cert_id)

let revoke_all t ~reason =
  let roles = roles_by_id t in
  List.iter (fun role -> deactivate t role ~reason ~cascade:false) roles;
  let appointments =
    List.filter
      (fun cert_id -> revoke t cert_id ~reason)
      (Issuer_records.valid_appointments t.records)
  in
  drop_cache t;
  List.length roles + List.length appointments

(* ------------------------------------------------------------------ *)
(* Crash and restart (DESIGN.md §11)                                  *)
(* ------------------------------------------------------------------ *)

(* Running reconcile workers notice a crash at their next step and exit
   through the normal path, releasing their batch slots. *)
let crash t =
  Issuer_records.stop_emitters t.records;
  Ident.Tbl.iter (fun _ role -> stop_monitoring t role) t.roles;
  drop_cache t;
  Queue.iter (fun role -> role.reconciling <- false) t.reconcile_queue;
  Queue.clear t.reconcile_queue

let restart t =
  Audit_trail.resume t.audit;
  Issuer_records.resume t.records;
  List.iter
    (fun role ->
      if
        not
          (recheck_env t role
             ~why:(fun _ -> "restart: membership constraint no longer holds")
             (fun _ -> true))
      then
        if
          List.exists
            (fun dep ->
              (not (remote t dep.issuer)) && not (Issuer_records.is_valid t.records dep.cert))
            role.deps
        then deactivate t role ~cascade:true ~reason:"restart: supporting credential revoked"
        else begin
          List.iter (arm_env_timer t role) role.env_watch;
          List.iter
            (fun dep -> if Option.is_none dep.watch then watch_dep ~replay:false t role dep)
            role.deps;
          if List.exists (fun dep -> remote t dep.issuer) role.deps then
            enter_suspect t role ~why:"restart: remote credentials unverified"
        end)
    (roles_by_id t)

(* ------------------------------------------------------------------ *)
(* Construction and introspection                                     *)
(* ------------------------------------------------------------------ *)

let create world ~service ~name ~env ~records ~audit ~cache ~suspect_grace ~reconcile_batch
    ~retry =
  let obs = World.obs world in
  let labels = [ ("service", name) ] in
  let counter cname = Obs.counter obs cname ~labels in
  {
    world;
    sid = service;
    sname = name;
    obs;
    env;
    records;
    audit;
    cache;
    suspect_grace;
    reconcile_batch;
    retry;
    roles = Ident.Tbl.create 64;
    env_index = Fact_tbl.create 16;
    by_issuer = Ident.Tbl.create 8;
    cache_watches = Ident.Tbl.create 64;
    beat_monitors = Ident.Tbl.create 8;
    st =
      {
        revocations = counter "service.revocations";
        cascade_deactivations = counter "service.cascade_deactivations";
        env_rechecks = counter "service.env_rechecks";
        suspects = counter "svc.suspect";
        reconciled_reinstated =
          Obs.counter obs "svc.reconciled" ~labels:(("outcome", "reinstated") :: labels);
        reconciled_revoked =
          Obs.counter obs "svc.reconciled" ~labels:(("outcome", "revoked") :: labels);
        retries_reconcile = Obs.counter obs "rpc.retries" ~labels:[ ("site", "reconcile") ];
        flaps_suppressed = Obs.counter obs "trust.flaps_suppressed" ~labels;
      };
    reconcilers = 0;
    reconcile_queue = Queue.create ();
  }

let start t =
  Env.on_change t.env (fun changed args _change -> on_env_change t changed args);
  (* A subject's trust-gated roles are re-checked whenever its score may
     have moved — the same env-change -> recheck -> revoke chain fact
     changes drive. *)
  World.on_trust_change t.world (fun subject ->
      on_env_change t "trust_score" [ Value.Id subject ]);
  Fault.set_hooks (World.fault t.world) t.sid ~on_crash:(fun () -> crash t)
    ~on_restart:(fun () -> restart t)

let active_roles t =
  List.map
    (fun { record; _ } -> (record.Cr.cert_id, record.Cr.name, record.Cr.args, record.Cr.principal))
    (roles_by_id t)

let suspect_roles t =
  List.filter_map
    (fun role ->
      if Option.is_some role.suspect then Some (role.record.Cr.cert_id, role.record.Cr.name)
      else None)
    (roles_by_id t)

let env_watcher_count t predicate =
  let base = Env.base_name predicate in
  (* A role watching several tuples of the predicate counts once. *)
  Fact_tbl.fold
    (fun (name, _) bucket acc ->
      if String.equal name base then
        Ident.Map.fold (fun id _ acc -> Ident.Set.add id acc) bucket acc
      else acc)
    t.env_index Ident.Set.empty
  |> Ident.Set.cardinal

let env_watcher_count_tuple t predicate args =
  Ident.Map.cardinal (By_fact.find t.env_index (env_key (predicate, args)))

