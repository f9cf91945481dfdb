(* scale — the E15 shape: one CIV, a gate whose member role rests on a
   badge, and monitoring by heartbeats (30 s period, 90 s deadline). Every
   principal's session is activated in set-up, so set-up carries the
   activation storm. Ops arrive at 100 per virtual second:

   - 97 %: log out, log back in and pass the gate once (invoke enter). The
     logout is a revocation. The one invocation is there because every
     workload must report the invocation metrics; it is the session shape
     of [grant] (activate, use, log out) at its smallest;
   - 3 %: the CIV revokes a badge (about 1,000 in 300 virtual seconds); the
     gate notices only when the badge's heartbeats stop, 60-90 virtual
     seconds later, while other ops run. Once the member role has
     collapsed the principal gets a new badge and logs in again.

   Heartbeat-detected revocations overlap other work, so they count in the
   revocation maximum and p99 but not in the medians, which are the
   logouts'. Engine dispatch, the heartbeat layer, the collector and the
   credential stores dominate. *)

open Common

let policy = {| initial member(u) <- *appt:badge(u)@civ ; priv enter(u) <- member(u) ; |}

let period = 30.0
let deadline = 90.0

type state = Member | Revoked | Lapsed  (** badge revoked, role not yet collapsed / collapsed *)

type person = {
  p : Principal.t;
  mutable badge : Appointment.t;
  mutable session : Principal.session;
  mutable member : Rmc.t;
  mutable state : state;
}

let build ~seed ~smoke =
  let n = if smoke then 64 else 50_000 in
  let world =
    World.create ~seed ~net_jitter:0.0002 ~monitoring:(World.Heartbeats { period; deadline }) ()
  in
  let civ = Civ.create world ~name:"civ" () in
  let gate = Service.create world ~name:"gate" ~policy () in
  let people =
    Array.map
      (fun p ->
        let badge = appoint civ p "badge" in
        let session = Principal.start_session p in
        let member = activate world p session gate ~role:"member" ~args:[] in
        { p; badge; session; member; state = Member })
      (principals world n)
  in
  World.settle world;
  let gen = Rng.create ((seed * 7919) + 53) in
  let zipf = Loadgen.zipf gen n in
  let arrivals = Loadgen.arrivals gen ~rate:100.0 ~start:(World.now world) in
  (* Badge revocations collapse in the order they were made, give or take
     a heartbeat period; the oldest is checked before each op. *)
  let revoked = Queue.create () in
  let activate d who =
    Driver.run_op d (fun () ->
        who.member <-
          Driver.call d Driver.Activate ~svc:gate ~session:who.session (fun () ->
              Principal.activate who.p who.session gate ~role:"member" ()))
  in
  let relogin d who =
    Driver.run_op d (fun () ->
        Driver.trigger d ~cls:"logout" ~deps:[ (gate, who.member.Rmc.id) ] (fun () ->
            Principal.logout who.p who.session));
    who.session <- Principal.start_session who.p;
    activate d who;
    Driver.run_op d (fun () ->
        ignore
          (Driver.call d Driver.Invoke ~svc:gate ~session:who.session (fun () ->
               Principal.invoke who.p who.session gate ~privilege:"enter" ~args:[ id who.p ])
            : Value.t option))
  in
  let revoke_badge d who =
    who.state <- Revoked;
    Queue.push who revoked;
    Driver.trigger ~heartbeat:true d ~cls:"heartbeat" ~deps:[ (gate, who.member.Rmc.id) ] (fun () ->
        if not (Civ.revoke civ who.badge.Appointment.id ~reason:"badge withdrawn") then
          Driver.fail d "badge was not revocable")
  in
  let reinstate d who =
    Driver.untimed d (fun () ->
        who.badge <- reappoint civ who.p who.badge;
        Driver.run_op d (fun () -> Principal.logout who.p who.session));
    who.session <- Principal.start_session who.p;
    who.state <- Member;
    activate d who
  in
  let next () =
    let due = Loadgen.next_due arrivals in
    let lapsed =
      match Queue.peek_opt revoked with
      | Some who when not (Service.is_valid_certificate gate who.member.Rmc.id) ->
          who.state <- Lapsed;
          Some (Queue.pop revoked)
      | _ -> None
    in
    let action =
      match Loadgen.draw_where gen zipf (fun i -> people.(i).state = Member) with
      | None -> fun _ -> ()
      | Some i -> (
          let who = people.(i) in
          match Loadgen.choose gen [| 0.97; 0.03 |] with
          | 0 -> fun d -> relogin d who
          | _ -> fun d -> revoke_badge d who)
    in
    let body d =
      Option.iter (reinstate d) lapsed;
      action d
    in
    { Driver.due; body }
  in
  let expected_active () =
    Array.to_list people
    |> List.filter_map (fun who ->
           match who.state with
           | Member -> Some ("gate", "member", [ id who.p ], Principal.id who.p)
           | Revoked | Lapsed -> None)
  in
  {
    world;
    services = [ gate ];
    civs = [ civ ];
    bound = deadline +. 1.0;
    next;
    expected_active;
    check = (fun () -> []);
    sample_rmc = (fun () -> (people.(0).member, Principal.session_key people.(0).session));
    sample_appt = (fun () -> people.(0).badge);
    env = { changes = 0; useful = 0 };
    sizes =
      [
        ("sessions", float_of_int n);
        ("rate_per_virt_s", 100.0);
        ("heartbeat_period_s", period);
        ("heartbeat_deadline_s", deadline);
      ];
  }

let workload =
  {
    name = "scale";
    build;
    prefix = (fun ~smoke -> if smoke then 40 else 6_000);
    ops_per_s = 2_000.0;
    triggers = [ ("logout", 1.0) ];
  }
