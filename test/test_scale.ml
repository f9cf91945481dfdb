(* Scale sanity: wider worlds with activation storms, decommissioning, and
   network traffic in the trace. Guards against accidental quadratic
   blowups in the hot paths and exercises the administrative bulk
   operations. *)

module World = Oasis_core.World
module Service = Oasis_core.Service
module Principal = Oasis_core.Principal
module Protocol = Oasis_core.Protocol
module Civ = Oasis_domain.Civ
module Obs = Oasis_obs.Obs
module Value = Oasis_util.Value
open Fixtures

let test_activation_storm () =
  (* 20 services x 30 principals, each principal active at 5 services. *)
  let world = World.create ~seed:77 () in
  let civ = Civ.create world ~name:"authority" () in
  let services =
    Array.init 20 (fun i ->
        Service.create world
          ~name:(Printf.sprintf "svc%d" i)
          ~policy:"initial member(u) <- *appt:badge(u)@authority;" ())
  in
  let principals =
    Array.init 30 (fun i ->
        let p = Principal.create world ~name:(Printf.sprintf "p%d" i) in
        Principal.grant_appointment p
          (Civ.issue civ ~kind:"badge"
             ~args:[ Value.Id (Principal.id p) ]
             ~holder:(Principal.id p) ~holder_key:(Principal.longterm_public p) ());
        p)
  in
  World.settle world;
  Array.iteri
    (fun pi p ->
      World.run_proc world (fun () ->
          let s = Principal.start_session p in
          for k = 0 to 4 do
            let svc = services.((pi + k) mod 20) in
            ignore (ok (Principal.activate p s svc ~role:"member" ()))
          done))
    principals;
  let total =
    Array.fold_left (fun acc s -> acc + List.length (Service.active_roles s)) 0 services
  in
  Alcotest.(check int) "150 active roles" 150 total;
  (* Revoking one badge kills exactly that principal's 5 roles. *)
  let victim = principals.(0) in
  let badge = List.hd (Principal.appointments victim) in
  ignore (Civ.revoke civ badge.Oasis_cert.Appointment.id ~reason:"offboarded");
  World.settle world;
  let total' =
    Array.fold_left (fun acc s -> acc + List.length (Service.active_roles s)) 0 services
  in
  Alcotest.(check int) "five roles collapsed" 145 total'

let test_decommission () =
  let t = make () in
  let _session = alice_treating t ~patient:7 in
  let before = List.length (Service.active_roles t.hospital) in
  Alcotest.(check bool) "some roles active" true (before > 0);
  let withdrawn = Service.decommission t.hospital ~reason:"service retired" in
  World.settle t.world;
  Alcotest.(check int) "no active roles" 0 (List.length (Service.active_roles t.hospital));
  (* RMCs for alice's 3 roles + admin's bootstrap/hr_admin + 3 appointments. *)
  Alcotest.(check bool) (Printf.sprintf "withdrew %d" withdrawn) true (withdrawn >= before);
  (* Nothing works any more. *)
  World.run_proc t.world (fun () ->
      let s = Principal.start_session t.alice in
      match Principal.activate t.alice s t.hospital ~role:"logged_in" () with
      | Error Protocol.No_proof -> ()
      | _ -> Alcotest.fail "decommissioned service still grants")

(* The network's traffic is visible as [net.send] trace events through an
   obs sink, and detaching the sink stops the recording. *)
let test_net_send_events () =
  let t = make () in
  let obs = World.obs t.world in
  let sink, captured = Obs.memory_sink () in
  Obs.attach obs sink;
  let _session = alice_treating t ~patient:7 in
  Obs.detach_all obs;
  let named name = List.filter (fun (e : Obs.event) -> e.Obs.name = name) (captured ()) in
  Alcotest.(check bool) "traffic observed" true (List.length (named "net.send") >= 6);
  Alcotest.(check bool) "activations visible" true (named "solve.activation" <> []);
  let before = List.length (captured ()) in
  ignore (alice_treating t ~patient:8);
  Alcotest.(check int) "nothing recorded after detach" before (List.length (captured ()))

let suite =
  ( "scale",
    [
      Alcotest.test_case "activation storm" `Slow test_activation_storm;
      Alcotest.test_case "decommission" `Quick test_decommission;
      Alcotest.test_case "net.send events" `Quick test_net_send_events;
    ] )
