module Ident = Oasis_util.Ident
module Value = Oasis_util.Value
module Solve = Oasis_policy.Solve
module Obs = Oasis_obs.Obs
module Dlog = Oasis_trust.Decision_log

type t = {
  world : World.t;
  sid : Ident.t;
  sname : string;
  obs : Obs.t;
  records : Dlog.decision -> Obs.Counter.t;
  mutable dlog : Dlog.t; (* replaced by the durable resume on restart *)
}

(* The chain's store is kept in the world's durable store under this key,
   so every append is durable as it is made; restart resumes from it (see
   [resume]). *)
let chain_key sid = "dlog:" ^ Ident.to_string sid

(* [audit.records{service,decision}], each handle looked up once, at its
   first record: a decision this service never takes registers no key. *)
let records_counters obs ~name =
  let counter decision =
    lazy
      (Obs.counter obs "audit.records"
         ~labels:[ ("service", name); ("decision", Dlog.decision_label decision) ])
  in
  let counters =
    List.map (fun d -> (d, counter d)) Dlog.[ Grant; Deny; Revoke; Suspect; Reconcile ]
  in
  fun decision -> Lazy.force (List.assq decision counters)

let create world ~service ~name =
  let obs = World.obs world and dlog = Dlog.create ~service in
  Durable.set (World.durable world) (chain_key service) (Dlog.store dlog);
  { world; sid = service; sname = name; obs; records = records_counters obs ~name; dlog }

let decision_log t = t.dlog

(* The trace_seq snapshot correlates the record with the obs event emitted
   just before it (0 while tracing is off). *)
let log t ~decision ~principal ~action ?(args = []) ?(rule = "") ?(creds = []) ?(env_facts = [])
    () =
  Obs.Counter.inc (t.records decision);
  ignore
    (Dlog.append t.dlog ~at:(World.now t.world) ~decision ~principal ~action ~args ~rule ~creds
       ~env_facts ~trace_seq:(Obs.last_seq t.obs) ())

let render_env_fact (name, args) =
  if args = [] then name
  else Printf.sprintf "%s(%s)" name (String.concat ", " (List.map Value.to_string args))

let record_grant t ?issued ~principal ~action ~args ~support ~rule () =
  let creds, env_facts =
    List.fold_right
      (fun s (creds, facts) ->
        match s with
        | Solve.By_rmc (c : Solve.cred) | Solve.By_appointment c ->
            (c.Solve.cred_id :: creds, facts)
        | Solve.By_env (name, args) -> (creds, render_env_fact (name, args) :: facts))
      support ([], [])
  in
  let creds = match issued with Some id -> id :: creds | None -> creds in
  log t ~decision:Dlog.Grant ~principal ~action ~args ~rule ~creds ~env_facts ()

exception Chain_tampered of { service : string; seq : int; why : string }

let resume t =
  let outcome label =
    Obs.Counter.inc
      (Obs.counter t.obs "audit.chain" ~labels:[ ("service", t.sname); ("outcome", label) ])
  in
  let store = Durable.find (World.durable t.world) (chain_key t.sid) in
  match Option.map (Dlog.resume ~service:t.sid) store with
  | None -> ()
  | Some (Ok dlog) ->
      outcome "resumed";
      t.dlog <- dlog
  | Some (Error (seq, why)) ->
      outcome "tampered";
      raise (Chain_tampered { service = t.sname; seq; why })
