(* Role-dependency chains and trees across services (Fig. 1 + Fig. 5):
   sessions built through many services collapse completely and exactly. *)

module World = Oasis_core.World
module Service = Oasis_core.Service
module Principal = Oasis_core.Principal
module Protocol = Oasis_core.Protocol
module Value = Oasis_util.Value
open Fixtures

(* A chain: s0 defines an initial role; each s(i) requires s(i-1)'s role as
   a monitored prerequisite (Fig. 1's dependency structure). *)
let build_simple_chain world depth =
  let root = Service.create world ~name:"s0" ~policy:"initial r0 <- env:eq(1, 1);" () in
  let services = Array.make (depth + 1) root in
  for i = 1 to depth do
    let policy = Printf.sprintf "r%d <- *r%d@s%d;" i (i - 1) (i - 1) in
    services.(i) <- Service.create world ~name:(Printf.sprintf "s%d" i) ~policy ()
  done;
  services

let activate_chain world services p =
  World.run_proc world (fun () ->
      let s = Principal.start_session p in
      Array.iteri
        (fun i service ->
          match Principal.activate p s service ~role:(Printf.sprintf "r%d" i) () with
          | Ok _ -> ()
          | Error d ->
              Alcotest.failf "activation r%d denied: %s" i (Protocol.denial_to_string d))
        services;
      s)

let total_active services =
  Array.fold_left (fun acc s -> acc + List.length (Service.active_roles s)) 0 services

let test_chain_collapse () =
  let world = World.create ~seed:41 () in
  let services = build_simple_chain world 8 in
  let p = Principal.create world ~name:"p" in
  let session = activate_chain world services p in
  ignore session;
  Alcotest.(check int) "nine roles active" 9 (total_active services);
  (* Deactivating the root initial role collapses the entire session. *)
  let root_rmc = List.nth (Principal.session_rmcs session) 8 in
  Alcotest.(check string) "found root" "r0" root_rmc.Oasis_cert.Rmc.role;
  ignore (Service.revoke_certificate services.(0) root_rmc.Oasis_cert.Rmc.id ~reason:"logout");
  World.settle world;
  Alcotest.(check int) "all collapsed" 0 (total_active services)

let test_chain_partial_collapse () =
  let world = World.create ~seed:42 () in
  let services = build_simple_chain world 8 in
  let p = Principal.create world ~name:"p" in
  let session = activate_chain world services p in
  (* Kill the middle: everything below survives, everything above dies. *)
  let r4 =
    List.find (fun (r : Oasis_cert.Rmc.t) -> r.role = "r4") (Principal.session_rmcs session)
  in
  ignore (Service.revoke_certificate services.(4) r4.Oasis_cert.Rmc.id ~reason:"mid cut");
  World.settle world;
  for i = 0 to 3 do
    Alcotest.(check int) (Printf.sprintf "s%d survives" i) 1
      (List.length (Service.active_roles services.(i)))
  done;
  for i = 4 to 8 do
    Alcotest.(check int) (Printf.sprintf "s%d collapsed" i) 0
      (List.length (Service.active_roles services.(i)))
  done

let test_collapse_propagation_time () =
  (* Collapse reaches depth d after roughly d notification latencies — the
     E5 shape. *)
  let world = World.create ~seed:43 ~notify_latency:0.01 () in
  let services = build_simple_chain world 8 in
  let p = Principal.create world ~name:"p" in
  let session = activate_chain world services p in
  ignore session;
  let t0 = World.now world in
  let root_rmc =
    List.find (fun (r : Oasis_cert.Rmc.t) -> r.role = "r0") (Principal.session_rmcs session)
  in
  ignore (Service.revoke_certificate services.(0) root_rmc.Oasis_cert.Rmc.id ~reason:"x");
  World.settle world;
  ignore t0;
  (* Each hop adds one broker notification; verify monotone cascade counts. *)
  let st = Array.map (fun s -> (Service.stats s).Service.cascade_deactivations) services in
  Array.iteri
    (fun i n ->
      if i > 0 then Alcotest.(check int) (Printf.sprintf "s%d cascaded" i) 1 n)
    st

let test_tree_collapse () =
  (* One root service; [fanout] dependent services each with [fanout]
     dependent roles for distinct principals. *)
  let world = World.create ~seed:44 () in
  let fanout = 3 in
  let root = Service.create world ~name:"root" ~policy:"initial base <- env:eq(1, 1);" () in
  let leaves =
    List.init fanout (fun i ->
        Service.create world
          ~name:(Printf.sprintf "leaf%d" i)
          ~policy:"dependent <- *base@root;" ())
  in
  let principals = List.init fanout (fun i -> Principal.create world ~name:(Printf.sprintf "p%d" i)) in
  let base_rmcs =
    List.map
      (fun p ->
        World.run_proc world (fun () ->
            let s = Principal.start_session p in
            let rmc = ok (Principal.activate p s root ~role:"base" ()) in
            List.iter
              (fun leaf -> ignore (ok (Principal.activate p s leaf ~role:"dependent" ())))
              leaves;
            rmc))
      principals
  in
  let leaf_active () =
    List.fold_left (fun acc leaf -> acc + List.length (Service.active_roles leaf)) 0 leaves
  in
  Alcotest.(check int) "3x3 leaves" (fanout * fanout) (leaf_active ());
  (* Revoke one principal's base: only their leaves die. *)
  ignore
    (Service.revoke_certificate root (List.hd base_rmcs).Oasis_cert.Rmc.id ~reason:"one out");
  World.settle world;
  Alcotest.(check int) "one principal's leaves gone" (fanout * (fanout - 1)) (leaf_active ());
  Alcotest.(check int) "root keeps others" (fanout - 1) (List.length (Service.active_roles root))

let test_broker_traffic_proportional_to_tree () =
  let world = World.create ~seed:45 () in
  let services = build_simple_chain world 4 in
  let p = Principal.create world ~name:"p" in
  let session = activate_chain world services p in
  let published () = Fixtures.metric (World.obs world) "broker.published" in
  let published_before = published () in
  let root_rmc =
    List.find (fun (r : Oasis_cert.Rmc.t) -> r.role = "r0") (Principal.session_rmcs session)
  in
  ignore (Service.revoke_certificate services.(0) root_rmc.Oasis_cert.Rmc.id ~reason:"x");
  World.settle world;
  (* One invalidation publish per collapsed certificate. *)
  Alcotest.(check int) "one publish per dead role" 5 (published () - published_before)

let suite =
  ( "cascade",
    [
      Alcotest.test_case "chain collapse" `Quick test_chain_collapse;
      Alcotest.test_case "partial collapse" `Quick test_chain_partial_collapse;
      Alcotest.test_case "propagation accounting" `Quick test_collapse_propagation_time;
      Alcotest.test_case "tree collapse" `Quick test_tree_collapse;
      Alcotest.test_case "broker traffic" `Quick test_broker_traffic_proportional_to_tree;
    ] )
