module Ident = Oasis_util.Ident
module Rng = Oasis_util.Rng
module Obs = Oasis_obs.Obs

type 'msg handler = src:Ident.t -> 'msg -> 'msg

type link = { latency : float; jitter : float; loss : float }

type 'msg node = { handler : 'msg handler; mutable down : bool }

(* The drop counters, one per cause: [net.dropped{cause=...}]. *)
type drop_counters = {
  src_down : Obs.Counter.t;
  dst_missing : Obs.Counter.t;
  partitioned : Obs.Counter.t;
  link_loss : Obs.Counter.t;
  in_flight_down : Obs.Counter.t;
  handler_error : Obs.Counter.t;
}

type 'msg t = {
  engine : Engine.t;
  rng : Rng.t;
  obs : Obs.t;
  nodes : 'msg node Ident.Tbl.t;
  links : (Ident.t * Ident.t, link) Hashtbl.t;
  (* Directed pairs severed by named partitions (Fault). Refcounted so
     overlapping partitions compose: a pair stays cut until every partition
     naming it has healed. *)
  blocked : (Ident.t * Ident.t, int) Hashtbl.t;
  default : link;
  size_of : 'msg -> int;
  c_sent : Obs.Counter.t;
  c_delivered : Obs.Counter.t;
  c_rpcs : Obs.Counter.t;
  c_bytes : Obs.Counter.t;
  drops : drop_counters;
}

exception Rpc_dropped

let create engine rng ~default_latency ?(default_jitter = 0.0) ?(size_of = fun _ -> 0) ?obs () =
  let obs =
    match obs with
    | Some obs -> obs
    | None -> Obs.create ~now:(fun () -> Engine.now engine) ()
  in
  let drop cause = Obs.counter obs "net.dropped" ~labels:[ ("cause", cause) ] in
  {
    engine;
    rng;
    obs;
    nodes = Ident.Tbl.create 64;
    links = Hashtbl.create 64;
    blocked = Hashtbl.create 16;
    default = { latency = default_latency; jitter = default_jitter; loss = 0.0 };
    size_of;
    c_sent = Obs.counter obs "net.sent";
    c_delivered = Obs.counter obs "net.delivered";
    c_rpcs = Obs.counter obs "net.rpcs";
    c_bytes = Obs.counter obs "net.bytes_sent";
    drops =
      {
        src_down = drop "src_down";
        dst_missing = drop "dst_missing";
        partitioned = drop "partitioned";
        link_loss = drop "link_loss";
        in_flight_down = drop "in_flight_down";
        handler_error = drop "handler_error";
      };
  }

let obs t = t.obs

let add_node t id handler =
  if Ident.Tbl.mem t.nodes id then
    invalid_arg (Printf.sprintf "Network.add_node: %s already registered" (Ident.to_string id));
  Ident.Tbl.replace t.nodes id { handler; down = false }

let set_link t src dst ~latency ?(loss = 0.0) () =
  Hashtbl.replace t.links (src, dst) { latency; jitter = 0.0; loss }

let is_down t id =
  match Ident.Tbl.find_opt t.nodes id with Some node -> node.down | None -> true

let set_down t id down =
  match Ident.Tbl.find_opt t.nodes id with
  | Some node -> node.down <- down
  | None -> invalid_arg (Printf.sprintf "Network.set_down: unknown node %s" (Ident.to_string id))

let block_pair t src dst =
  let n = Option.value ~default:0 (Hashtbl.find_opt t.blocked (src, dst)) in
  Hashtbl.replace t.blocked (src, dst) (n + 1)

let unblock_pair t src dst =
  match Hashtbl.find_opt t.blocked (src, dst) with
  | None -> ()
  | Some n when n <= 1 -> Hashtbl.remove t.blocked (src, dst)
  | Some n -> Hashtbl.replace t.blocked (src, dst) (n - 1)

let pair_blocked t src dst = Hashtbl.mem t.blocked (src, dst)

let link_for t src dst =
  match Hashtbl.find_opt t.links (src, dst) with Some l -> l | None -> t.default

let delay_of t link = link.latency +. (if link.jitter > 0.0 then Rng.float t.rng link.jitter else 0.0)

let endpoint_labels src dst = [ ("src", Ident.to_string src); ("dst", Ident.to_string dst) ]

(* Attempts one message leg. [k] runs at delivery time with the destination
   node; [lost] runs immediately if the leg cannot complete. Each drop is
   counted under exactly one cause. *)
let transmit t ~src ~dst ~msg ~k ~lost =
  Obs.Counter.inc t.c_sent;
  Obs.Counter.add t.c_bytes (t.size_of msg);
  if Obs.tracing t.obs then Obs.event t.obs "net.send" ~labels:(endpoint_labels src dst);
  let drop cause counter =
    Obs.Counter.inc counter;
    if Obs.tracing t.obs then
      Obs.event t.obs "net.drop" ~labels:(("cause", cause) :: endpoint_labels src dst);
    lost ()
  in
  let src_down = match Ident.Tbl.find_opt t.nodes src with Some n -> n.down | None -> false in
  if src_down then drop "src_down" t.drops.src_down
  else if not (Ident.Tbl.mem t.nodes dst) then drop "dst_missing" t.drops.dst_missing
  else if pair_blocked t src dst then drop "partitioned" t.drops.partitioned
  else
    let link = link_for t src dst in
    if link.loss > 0.0 && Rng.bernoulli t.rng link.loss then drop "link_loss" t.drops.link_loss
    else
      let delay = delay_of t link in
      ignore
        (Engine.schedule t.engine ~after:delay (fun () ->
             match Ident.Tbl.find_opt t.nodes dst with
             | Some node when not node.down ->
                 Obs.Counter.inc t.c_delivered;
                 if Obs.tracing t.obs then
                   Obs.event t.obs "net.deliver" ~labels:(endpoint_labels src dst);
                 k node
             | Some _ | None ->
                 (* Destination vanished or went down in flight. *)
                 drop "in_flight_down" t.drops.in_flight_down))

let rpc t ~src ~dst msg =
  (* Filled once: with the reply, or with [None] once the round trip failed. *)
  let iv : 'msg option Proc.ivar = Proc.ivar () in
  (* A loss fails the round trip at once — see the interface comment. *)
  let lost () = Proc.fill iv None in
  transmit t ~src ~dst ~msg ~lost ~k:(fun node ->
      Proc.spawn t.engine (fun () ->
          match node.handler ~src msg with
          | reply ->
              transmit t ~src:dst ~dst:src ~msg:reply ~lost ~k:(fun _ -> Proc.fill iv (Some reply))
          | exception exn ->
              (* A raising handler must not strand the caller on an ivar
                 that is never filled (it used to block forever at a fixed
                 virtual time). Contain the exception, record it, and fail
                 the round trip. *)
              Obs.Counter.inc t.drops.handler_error;
              if Obs.tracing t.obs then
                Obs.event t.obs "net.rpc_handler_error"
                  ~labels:(("exn", Printexc.to_string exn) :: endpoint_labels src dst);
              Proc.fill iv None));
  match Proc.read iv with
  | Some reply ->
      Obs.Counter.inc t.c_rpcs;
      reply
  | None -> raise Rpc_dropped
