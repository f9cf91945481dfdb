(* The simulated message-passing network. *)

module Engine = Oasis_sim.Engine
module Network = Oasis_sim.Network
module Proc = Oasis_sim.Proc
module Ident = Oasis_util.Ident
module Rng = Oasis_util.Rng
module Obs = Oasis_obs.Obs

type msg = Ping | Pong | Echo of int | Echoed of int

let node_id n = Ident.make "node" n

let silent_handler ~src:_ m = m

(* A handler that records each request it answers. *)
let recording f ~src:_ m =
  f m;
  m

let make ?(latency = 1.0) () =
  let engine = Engine.create () in
  let obs = Obs.create ~now:(fun () -> Engine.now engine) () in
  let net = Network.create engine (Rng.create 1) ~default_latency:latency ~obs () in
  (engine, net)

let count net key = Fixtures.metric (Network.obs net) key
let dropped net = Fixtures.net_dropped (Network.obs net)

(* A fire-and-forget post: the sender does not wait, and the request
   reaches the destination's handler after one link latency. *)
let test_oneway_delivery_and_latency () =
  let engine, net = make () in
  let received = ref None in
  Network.add_node net (node_id 0) silent_handler;
  Network.add_node net (node_id 1) (recording (fun m -> received := Some (m, Engine.now engine)));
  Fixtures.post engine net ~src:(node_id 0) ~dst:(node_id 1) Ping;
  Alcotest.(check bool) "not yet delivered" true (!received = None);
  Engine.run engine;
  (match !received with
  | Some (Ping, t) -> Alcotest.(check (float 1e-9)) "after latency" 1.0 t
  | _ -> Alcotest.fail "wrong delivery");
  Alcotest.(check int) "request and reply sent" 2 (count net "net.sent");
  Alcotest.(check int) "request and reply delivered" 2 (count net "net.delivered")

let test_rpc_roundtrip () =
  let engine, net = make () in
  let served_at = ref None in
  Network.add_node net (node_id 0) silent_handler;
  Network.add_node net (node_id 1) (fun ~src:_ m ->
      served_at := Some (Engine.now engine);
      match m with Echo n -> Echoed (n + 1) | m -> m);
  let result = ref None in
  Proc.spawn engine (fun () ->
      let reply = Network.rpc net ~src:(node_id 0) ~dst:(node_id 1) (Echo 41) in
      result := Some (reply, Engine.now engine));
  Alcotest.(check bool) "not yet delivered" true (!served_at = None);
  Engine.run engine;
  Alcotest.(check (option (float 1e-9))) "request after one latency" (Some 1.0) !served_at;
  (match !result with
  | Some (Echoed 42, t) -> Alcotest.(check (float 1e-9)) "two legs" 2.0 t
  | _ -> Alcotest.fail "wrong rpc result");
  Alcotest.(check int) "rpcs counted" 1 (count net "net.rpcs");
  Alcotest.(check int) "both legs sent" 2 (count net "net.sent");
  Alcotest.(check int) "both legs delivered" 2 (count net "net.delivered")

let test_rpc_nested () =
  (* Node 1's handler performs its own RPC to node 2 — the Fig. 3 chain. *)
  let engine, net = make () in
  Network.add_node net (node_id 0) silent_handler;
  Network.add_node net (node_id 1) (fun ~src:_ m ->
      match m with
      | Echo n -> Network.rpc net ~src:(node_id 1) ~dst:(node_id 2) (Echo (n * 10))
      | m -> m);
  Network.add_node net (node_id 2) (fun ~src:_ m -> match m with Echo n -> Echoed n | m -> m);
  let result = ref None in
  Proc.spawn engine (fun () ->
      result := Some (Network.rpc net ~src:(node_id 0) ~dst:(node_id 1) (Echo 7)));
  Engine.run engine;
  (match !result with
  | Some (Echoed 70) -> ()
  | _ -> Alcotest.fail "nested rpc failed");
  Alcotest.(check (float 1e-9)) "four legs" 4.0 (Engine.now engine)

let test_unknown_destination_dropped () =
  let engine, net = make () in
  Network.add_node net (node_id 0) silent_handler;
  Fixtures.post engine net ~src:(node_id 0) ~dst:(node_id 9) Ping;
  Engine.run engine;
  Alcotest.(check int) "dropped" 1 (dropped net);
  Alcotest.(check int) "not delivered" 0 (count net "net.delivered")

let test_down_node () =
  let engine, net = make () in
  let received = ref 0 in
  Network.add_node net (node_id 0) silent_handler;
  Network.add_node net (node_id 1) (recording (fun _ -> incr received));
  Network.set_down net (node_id 1) true;
  Alcotest.(check bool) "is_down" true (Network.is_down net (node_id 1));
  Fixtures.post engine net ~src:(node_id 0) ~dst:(node_id 1) Ping;
  Engine.run engine;
  Alcotest.(check int) "down node got nothing" 0 !received;
  Network.set_down net (node_id 1) false;
  Fixtures.post engine net ~src:(node_id 0) ~dst:(node_id 1) Ping;
  Engine.run engine;
  Alcotest.(check int) "healed node receives" 1 !received

let test_down_in_flight () =
  (* Node goes down after the message left: dropped at delivery time. *)
  let engine, net = make () in
  let received = ref 0 in
  Network.add_node net (node_id 0) silent_handler;
  Network.add_node net (node_id 1) (recording (fun _ -> incr received));
  Fixtures.post engine net ~src:(node_id 0) ~dst:(node_id 1) Ping;
  ignore (Engine.schedule engine ~after:0.5 (fun () -> Network.set_down net (node_id 1) true));
  Engine.run engine;
  Alcotest.(check int) "dropped in flight" 0 !received

let test_rpc_to_dead_node_raises () =
  let engine, net = make () in
  Network.add_node net (node_id 0) silent_handler;
  let raised = ref false in
  Proc.spawn engine (fun () ->
      match Network.rpc net ~src:(node_id 0) ~dst:(node_id 9) Ping with
      | _ -> ()
      | exception Network.Rpc_dropped -> raised := true);
  Engine.run engine;
  Alcotest.(check bool) "Rpc_dropped" true !raised

let test_lossy_link () =
  let engine, net = make () in
  let received = ref 0 in
  Network.add_node net (node_id 0) silent_handler;
  Network.add_node net (node_id 1) (recording (fun _ -> incr received));
  Network.set_link net (node_id 0) (node_id 1) ~latency:0.1 ~loss:0.5 ();
  for _ = 1 to 200 do
    Fixtures.post engine net ~src:(node_id 0) ~dst:(node_id 1) Ping
  done;
  Engine.run engine;
  Alcotest.(check bool)
    (Printf.sprintf "roughly half lost (%d)" !received)
    true
    (!received > 60 && !received < 140);
  Alcotest.(check int) "only the lossy leg dropped, as link_loss" (200 - !received)
    (count net "net.dropped{cause=link_loss}");
  Alcotest.(check int) "under no other cause" (200 - !received) (dropped net);
  Alcotest.(check int) "conservation" (count net "net.sent") (count net "net.delivered" + dropped net)

let test_link_override_latency () =
  let engine, net = make ~latency:5.0 () in
  let at = ref 0.0 in
  Network.add_node net (node_id 0) silent_handler;
  Network.add_node net (node_id 1) (recording (fun _ -> at := Engine.now engine));
  Network.set_link net (node_id 0) (node_id 1) ~latency:0.25 ();
  Fixtures.post engine net ~src:(node_id 0) ~dst:(node_id 1) Ping;
  Engine.run engine;
  Alcotest.(check (float 1e-9)) "override latency" 0.25 !at

let test_duplicate_node_raises () =
  let _, net = make () in
  Network.add_node net (node_id 0) silent_handler;
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Network.add_node: node#0 already registered") (fun () ->
      Network.add_node net (node_id 0) silent_handler)

let test_fifo_per_link () =
  (* Constant latency implies per-link FIFO delivery. *)
  let engine, net = make () in
  let log = ref [] in
  Network.add_node net (node_id 0) silent_handler;
  Network.add_node net (node_id 1)
    (recording (function Echo n -> log := n :: !log | _ -> ()));
  for i = 1 to 10 do
    Fixtures.post engine net ~src:(node_id 0) ~dst:(node_id 1) (Echo i)
  done;
  Engine.run engine;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ] (List.rev !log)

let suite =
  ( "network",
    [
      Alcotest.test_case "oneway delivery" `Quick test_oneway_delivery_and_latency;
      Alcotest.test_case "rpc roundtrip" `Quick test_rpc_roundtrip;
      Alcotest.test_case "rpc nested" `Quick test_rpc_nested;
      Alcotest.test_case "unknown destination" `Quick test_unknown_destination_dropped;
      Alcotest.test_case "down node" `Quick test_down_node;
      Alcotest.test_case "down in flight" `Quick test_down_in_flight;
      Alcotest.test_case "rpc to dead node" `Quick test_rpc_to_dead_node_raises;
      Alcotest.test_case "lossy link" `Quick test_lossy_link;
      Alcotest.test_case "link override" `Quick test_link_override_latency;
      Alcotest.test_case "duplicate node" `Quick test_duplicate_node_raises;
      Alcotest.test_case "fifo per link" `Quick test_fifo_per_link;
    ] )
