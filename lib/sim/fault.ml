module Ident = Oasis_util.Ident
module Obs = Oasis_obs.Obs

type hooks = { on_crash : unit -> unit; on_restart : unit -> unit }

type 'msg t = {
  net : 'msg Network.t;
  partitions : (string, (Ident.t * Ident.t) list) Hashtbl.t;
  hooks : hooks Ident.Tbl.t;
  crashed : bool Ident.Tbl.t;
  mutable on_heal : (Ident.t * Ident.t) list -> unit;
  c_partitions : Obs.Counter.t;
}

let create net =
  {
    net;
    partitions = Hashtbl.create 8;
    hooks = Ident.Tbl.create 16;
    crashed = Ident.Tbl.create 16;
    on_heal = ignore;
    c_partitions = Obs.counter (Network.obs net) "net.partitioned";
  }

let cross_pairs left right =
  List.concat_map
    (fun a ->
      List.filter_map (fun b -> if Ident.equal a b then None else Some (a, b)) right)
    left

let partition t ~name left right =
  if Hashtbl.mem t.partitions name then
    invalid_arg (Printf.sprintf "Fault.partition: %s already active" name);
  let pairs = cross_pairs left right in
  List.iter
    (fun (a, b) ->
      Network.block_pair t.net a b;
      Network.block_pair t.net b a)
    pairs;
  Hashtbl.replace t.partitions name pairs;
  Obs.Counter.inc t.c_partitions;
  let obs = Network.obs t.net in
  if Obs.tracing obs then Obs.event obs "fault.partition" ~labels:[ ("name", name) ]

let heal t name =
  match Hashtbl.find_opt t.partitions name with
  | None -> invalid_arg (Printf.sprintf "Fault.heal: no partition named %s" name)
  | Some pairs ->
      Hashtbl.remove t.partitions name;
      List.iter
        (fun (a, b) ->
          Network.unblock_pair t.net a b;
          Network.unblock_pair t.net b a)
        pairs;
      let obs = Network.obs t.net in
      if Obs.tracing obs then Obs.event obs "fault.heal" ~labels:[ ("name", name) ];
      t.on_heal pairs

let on_heal t hook = t.on_heal <- hook

let active_partitions t = Hashtbl.fold (fun name _ acc -> name :: acc) t.partitions []
let heal_all t = List.iter (heal t) (active_partitions t)

let set_hooks t id ~on_crash ~on_restart = Ident.Tbl.replace t.hooks id { on_crash; on_restart }
let is_crashed t id = Option.value ~default:false (Ident.Tbl.find_opt t.crashed id)

(* Only faults injected here count: a plain [Network.set_down] (the legacy
   lossy-link experiments) keeps its historical network-only semantics and
   does not sever event channels. *)
let is_cut t src dst = Network.pair_blocked t.net src dst || is_crashed t src || is_crashed t dst

let trace_node t what id =
  let obs = Network.obs t.net in
  if Obs.tracing obs then Obs.event obs what ~labels:[ ("node", Ident.to_string id) ]

let crash t id =
  if not (is_crashed t id) then begin
    Ident.Tbl.replace t.crashed id true;
    Network.set_down t.net id true;
    trace_node t "fault.crash" id;
    match Ident.Tbl.find_opt t.hooks id with Some h -> h.on_crash () | None -> ()
  end

let restart t id =
  if is_crashed t id then begin
    Ident.Tbl.remove t.crashed id;
    Network.set_down t.net id false;
    trace_node t "fault.restart" id;
    match Ident.Tbl.find_opt t.hooks id with
    | None -> ()
    | Some h -> (
        (* A restart hook that raises means the node refused to come back
           (e.g. its durable state failed verification). Roll the node back
           to crashed so the network view matches, then let the refusal
           propagate. *)
        try h.on_restart ()
        with e ->
          Ident.Tbl.replace t.crashed id true;
          Network.set_down t.net id true;
          trace_node t "fault.restart_refused" id;
          raise e)
  end
