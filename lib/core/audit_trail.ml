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

(* The chain is mirrored into the world's durable store under this key: the
   header once at creation, then one export line per appended record
   (incremental — the write cost per decision is that line, never the
   chain). Restart resumes from the blob; see [resume]. *)
let chain_key t = "dlog:" ^ Ident.to_string t.sid

(* [audit.records{service,decision}], each handle looked up once, at its
   first record: a decision this service never takes registers no key. *)
let records_counters obs ~name =
  let counter decision =
    lazy
      (Obs.counter obs "audit.records"
         ~labels:[ ("service", name); ("decision", Dlog.decision_label decision) ])
  in
  let grant = counter Dlog.Grant and deny = counter Dlog.Deny and revoke = counter Dlog.Revoke in
  let suspect = counter Dlog.Suspect and reconcile = counter Dlog.Reconcile in
  function
  | Dlog.Grant -> Lazy.force grant
  | Dlog.Deny -> Lazy.force deny
  | Dlog.Revoke -> Lazy.force revoke
  | Dlog.Suspect -> Lazy.force suspect
  | Dlog.Reconcile -> Lazy.force reconcile

let create world ~service ~name =
  let obs = World.obs world in
  let t =
    {
      world;
      sid = service;
      sname = name;
      obs;
      records = records_counters obs ~name;
      dlog = Dlog.create ~service;
    }
  in
  Durable.set (World.durable world) (chain_key t) (Dlog.export_header t.dlog);
  t

let decision_log t = t.dlog

(* The trace_seq snapshot correlates the record with the obs event emitted
   just before it (0 while tracing is off). *)
let log t ~decision ~principal ~action ?(args = []) ?(rule = "") ?(creds = []) ?(env_facts = [])
    () =
  Obs.Counter.inc (t.records decision);
  let r =
    Dlog.append t.dlog ~at:(World.now t.world) ~decision ~principal ~action ~args ~rule ~creds
      ~env_facts ~trace_seq:(Obs.last_seq t.obs) ()
  in
  Durable.append (World.durable t.world) (chain_key t) (Dlog.export_line r)

let render_env_fact (name, args) =
  if args = [] then name
  else Printf.sprintf "%s(%s)" name (String.concat ", " (List.map Value.to_string args))

let record_grant t ?issued ~principal ~action ~args ~support ~rule () =
  let creds =
    List.filter_map
      (function
        | Solve.By_rmc (c : Solve.cred) | Solve.By_appointment c -> Some c.Solve.cred_id
        | Solve.By_env _ -> None)
      support
  in
  let creds = match issued with Some id -> id :: creds | None -> creds in
  let env_facts =
    List.filter_map
      (function
        | Solve.By_env (name, args) -> Some (render_env_fact (name, args))
        | Solve.By_rmc _ | Solve.By_appointment _ -> None)
      support
  in
  log t ~decision:Dlog.Grant ~principal ~action ~args ~rule ~creds ~env_facts ()

exception Chain_tampered of { service : string; seq : int; why : string }

let resume t =
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
