(* The issuer side of Fig. 5, shared by services and CIV clusters: credential
   records (which are the tombstones), the issuer's beats and expiry. *)

module World = Oasis_core.World
module Service = Oasis_core.Service
module Principal = Oasis_core.Principal
module Civ = Oasis_domain.Civ
module Issuer_records = Oasis_core.Issuer_records
module Fault = Oasis_sim.Fault
module Value = Oasis_util.Value
module Cr = Oasis_cert.Credential_record
module Obs = Oasis_obs.Obs
module Dlog = Oasis_trust.Decision_log
module Engine = Oasis_sim.Engine
module Broker = Oasis_event.Broker
module Protocol = Oasis_core.Protocol
module Ident = Oasis_util.Ident

let ok = Fixtures.ok

let heartbeats = World.Heartbeats { period = 5.0; deadline = 15.0 }

(* How the issuer is taken down at t=40 and brought back at t=60. *)
type outage = No_outage | Crash | Primary_down

(* A gate role rests on a badge that expires at t=50, issued either by a CIV
   cluster or by an ordinary service. Returns whether, at t=400, the gate
   still holds the role and the issuer still vouches for the badge. *)
let badge_expiry ~issuer ~monitoring ~outage =
  let world = World.create ~seed:3 ~monitoring () in
  let p = Principal.create world ~name:"p" in
  let badge, issuer_valid, down, up =
    match issuer with
    | `Civ ->
        let civ = Civ.create world ~name:"civ" () in
        let badge =
          Civ.issue civ ~kind:"badge"
            ~args:[ Value.Id (Principal.id p) ]
            ~holder:(Principal.id p) ~holder_key:(Principal.longterm_public p) ~expires_at:50.0 ()
        in
        Principal.grant_appointment p badge;
        let fault = World.fault world in
        let down () =
          match outage with
          | Primary_down -> Civ.set_replica_down civ 0 true
          | Crash | No_outage -> Fault.crash fault (Civ.id civ)
        in
        let up () =
          match outage with
          | Primary_down -> Civ.set_replica_down civ 0 false
          | Crash | No_outage -> Fault.restart fault (Civ.id civ)
        in
        (badge, Civ.is_valid civ, down, up)
    | `Service ->
        let svc =
          Service.create world ~name:"civ"
            ~policy:"initial boot <- env:eq(1, 1); appoint badge(u) <- boot;" ()
        in
        let admin = Principal.create world ~name:"admin" in
        let badge =
          World.run_proc world (fun () ->
              let s = Principal.start_session admin in
              ignore (ok (Principal.activate admin s svc ~role:"boot" ()));
              ok
                (Principal.appoint admin s svc ~kind:"badge"
                   ~args:[ Value.Id (Principal.id p) ]
                   ~holder:p ~expires_at:50.0 ()))
        in
        (badge, Service.is_valid_certificate svc, (fun () -> Service.crash svc), fun () ->
          Service.restart svc)
  in
  let gate =
    Service.create world ~name:"gate"
      ~config:{ Service.default_config with suspect_grace = 60.0 }
      ~policy:"initial member(u) <- *appt:badge(u)@civ ;" ()
  in
  let member =
    World.run_proc world (fun () ->
        let s = Principal.start_session p in
        ok (Principal.activate p s gate ~role:"member" ()))
  in
  if outage <> No_outage then begin
    World.run_until world 40.0;
    down ();
    World.run_until world 60.0;
    up ()
  end;
  World.run_until world 400.0;
  ( Service.is_valid_certificate gate member.Oasis_cert.Rmc.id,
    issuer_valid badge.Oasis_cert.Appointment.id )

let check_expired name (role_held, badge_valid) =
  Alcotest.(check bool) (name ^ ": gate role collapsed") false role_held;
  Alcotest.(check bool) (name ^ ": issuer disowns the expired badge") false badge_valid

(* An appointment that expires while its issuer is down is announced when
   the issuer is back, through the normal revoke path: a beat lists it (at
   once under change events) or the gate reads its tombstone. Without the crash the role collapses at the
   deadline. *)
let test_expiry_while_down () =
  List.iter
    (fun (issuer, iname) ->
      List.iter
        (fun (monitoring, mname) ->
          List.iter
            (fun (outage, oname) ->
              if not (outage = Primary_down && issuer = `Service) then
                check_expired
                  (Printf.sprintf "%s issuer, %s, %s" iname mname oname)
                  (badge_expiry ~issuer ~monitoring ~outage))
            [ (No_outage, "no outage"); (Crash, "crash"); (Primary_down, "primary down") ])
        [ (World.Change_events, "change events"); (heartbeats, "heartbeats") ])
    [ (`Civ, "CIV"); (`Service, "service") ]

let beats world = Obs.Counter.value (Obs.counter (World.obs world) "hb.beats")

let store ?(is_down = fun () -> false) world =
  Issuer_records.create world ~issuer:(World.fresh_service_id world) ~is_down

let add ?expires_at ?(on_expire = ignore) records world =
  let cert_id = World.fresh_cert_id world in
  let expiry = Option.map (fun at -> (at, fun () -> on_expire cert_id)) expires_at in
  ignore
    (Issuer_records.add records ~cert_id ~kind:Cr.Kind_appointment
       ~principal:(World.fresh_principal_id world) ~name:"badge" ~args:[] ?expiry ());
  cert_id

(* Every beat heard on [issuer]'s channel, as (epoch, revoked), oldest
   first. *)
let heard world issuer =
  let beats = ref [] in
  ignore
    (Broker.subscribe (World.broker world) (Issuer_records.beat_topic issuer)
       ~owner:(World.fresh_service_id world) (fun _topic -> function
       | Protocol.Beat { epoch; revoked; _ } -> beats := (epoch, revoked) :: !beats
       | Protocol.Replicated _ -> ()));
  fun () -> List.rev !beats

let beat = Alcotest.(pair int (list (testable Ident.pp Ident.equal)))

(* Under heartbeats the issuer beats once per period from its first record
   on, revoked records or not, and its next beat lists each revocation
   once; a revoke runs the caller's bookkeeping once, and only on the call
   that flips it. *)
let test_next_beat_lists_revocation () =
  let world = World.create ~monitoring:heartbeats () in
  let issuer = World.fresh_service_id world in
  let records = Issuer_records.create world ~issuer in
  let heard = heard world issuer in
  let id = add records world and other = add records world in
  World.run_until world 12.0;
  Alcotest.(check int) "one beat per period for two records, at t=5 and t=10" 2 (beats world);
  let bookkept = ref 0 in
  let revoke () =
    Issuer_records.revoke records id ~reason:"test" ~bookkeeping:(fun _ -> incr bookkept)
  in
  Alcotest.(check bool) "first revoke flips the record" true (revoke ());
  World.run_until world 22.0;
  Alcotest.(check int) "the issuer beats on after the revoke" 4 (beats world);
  Alcotest.(check (list beat)) "the next beat lists the revocation, once"
    [ (1, []); (2, []); (3, [ id ]); (4, []) ]
    (heard ());
  Alcotest.(check bool) "second revoke" false (revoke ());
  Alcotest.(check int) "bookkeeping ran once" 1 !bookkept;
  Alcotest.(check bool) "revoked record" false (Issuer_records.is_valid records id);
  Alcotest.(check bool) "other record" true (Issuer_records.is_valid records other);
  Alcotest.(check bool) "unknown id" false
    (Issuer_records.is_valid records (World.fresh_cert_id world))

(* A crash silences the issuer's one emitter and loses its epoch and the
   revocations not yet beaten; [resume] restarts it from epoch 1. *)
let test_crash_and_resume () =
  let world = World.create ~monitoring:heartbeats () in
  let issuer = World.fresh_service_id world in
  let records = Issuer_records.create world ~issuer in
  let heard = heard world issuer in
  let live = add records world and dead = add records world in
  World.run_until world 7.0;
  ignore (Issuer_records.revoke records dead ~reason:"test" ~bookkeeping:ignore);
  Alcotest.(check int) "one emitter for both records" 1 (beats world);
  Issuer_records.stop_emitters records;
  World.run_until world 30.0;
  Alcotest.(check int) "silent while crashed" 1 (beats world);
  Issuer_records.resume records;
  World.run_until world 36.0;
  Alcotest.(check int) "the issuer beats again" 2 (beats world);
  Alcotest.(check (list beat)) "epoch 1 again, the unbeaten revocation lost"
    [ (1, []); (1, []) ]
    (heard ());
  Issuer_records.resume records;
  World.run_until world 41.0;
  Alcotest.(check int) "a second resume starts no second emitter" 3 (beats world);
  Alcotest.(check bool) "still valid" true (Issuer_records.is_valid records live)

(* Change-event monitoring starts no emitter. *)
let test_change_events_silent () =
  let world = World.create () in
  let records = store world in
  ignore (add records world);
  let pending = Engine.pending (World.engine world) in
  World.run_until world 60.0;
  Alcotest.(check int) "no beats" 0 (beats world);
  Alcotest.(check int) "no timer" 0 pending

(* With 1,000 badges watched by a gate there is one beat per issuer per
   period — the CIV's and the gate's own — and the engine's pending timers
   do not grow with the record count: each side holds one emitter, and the
   gate one deadline monitor for the CIV. *)
let test_beats_per_issuer_at_scale () =
  let world = World.create ~seed:7 ~monitoring:heartbeats () in
  let civ = Civ.create world ~name:"civ" () in
  let gate =
    Service.create world ~name:"gate" ~policy:"initial member(u) <- *appt:badge(u)@civ ;" ()
  in
  let enrol i =
    let p = Principal.create world ~name:(Printf.sprintf "p%d" i) in
    Principal.grant_appointment p
      (Civ.issue civ ~kind:"badge"
         ~args:[ Value.Id (Principal.id p) ]
         ~holder:(Principal.id p) ~holder_key:(Principal.longterm_public p) ());
    ignore
      (World.run_proc world (fun () ->
           ok (Principal.activate p (Principal.start_session p) gate ~role:"member" ())))
  in
  let pending () =
    World.settle world;
    Engine.pending (World.engine world)
  in
  enrol 0;
  let one = pending () in
  for i = 1 to 999 do
    enrol i
  done;
  let thousand = pending () in
  Alcotest.(check int) "pending timers with 1,000 records as with one" one thousand;
  Alcotest.(check int) "1,000 active members" 1000 (List.length (Service.active_roles gate));
  let before = beats world in
  World.run_until world (World.now world +. 50.0);
  Alcotest.(check int) "one beat per issuer per period" (2 * 10) (beats world - before);
  Alcotest.(check int) "every member still active" 1000 (List.length (Service.active_roles gate))

(* An expiry that falls due while the issuer is down waits for [resume]. *)
let test_expiry_deferred () =
  let world = World.create () in
  let down = ref false in
  let records = store ~is_down:(fun () -> !down) world in
  let expired = ref [] in
  let expire id =
    ignore
      (Issuer_records.revoke records id ~reason:"expired" ~bookkeeping:(fun _ ->
           expired := id :: !expired))
  in
  let first = add ~expires_at:10.0 ~on_expire:expire records world in
  let second = add ~expires_at:50.0 ~on_expire:expire records world in
  World.run_until world 20.0;
  Alcotest.(check bool) "expired on time" false (Issuer_records.is_valid records first);
  down := true;
  World.run_until world 100.0;
  Alcotest.(check bool) "deadline passed while down" true (Issuer_records.is_valid records second);
  down := false;
  Issuer_records.resume records;
  Alcotest.(check bool) "expired on resume" false (Issuer_records.is_valid records second);
  Alcotest.(check int) "each expiry revoked once" 2 (List.length !expired)

(* Under change events the revocation's beat is published after the
   caller's bookkeeping, so a service's [svc.revoke] event and its Revoke
   decision record precede the [broker.publish] on its feed in the trace. *)
let test_tombstone_published_last () =
  let world = World.create () in
  let sink, events = Obs.memory_sink () in
  Obs.attach (World.obs world) sink;
  let svc = Service.create world ~name:"svc" ~policy:"initial base <- env:eq(1, 1);" () in
  let p = Principal.create world ~name:"p" in
  let rmc =
    World.run_proc world (fun () ->
        ok (Principal.activate p (Principal.start_session p) svc ~role:"base" ()))
  in
  Alcotest.(check bool) "revoked" true
    (Service.revoke_certificate svc rmc.Oasis_cert.Rmc.id ~reason:"test");
  let topic = Issuer_records.beat_topic (Service.id svc) in
  let seq_of name label =
    match
      List.find_opt
        (fun (e : Obs.event) -> e.name = name && List.mem label e.labels)
        (events ())
    with
    | Some e -> e.seq
    | None -> Alcotest.failf "no %s event" name
  in
  let revoke = seq_of "svc.revoke" ("cert", Oasis_util.Ident.to_string rmc.Oasis_cert.Rmc.id) in
  let publish = seq_of "broker.publish" ("topic", topic) in
  Alcotest.(check bool) "svc.revoke before broker.publish" true (revoke < publish);
  let record = List.rev (Dlog.records (Service.decision_log svc)) |> List.hd in
  Alcotest.(check string) "last decision" "revoke:base" record.Dlog.action;
  Alcotest.(check bool) "decision record correlates before the publish" true
    (record.Dlog.trace_seq < publish)

let suite =
  ( "issuer-records",
    [
      Alcotest.test_case "next beat lists a revocation" `Quick test_next_beat_lists_revocation;
      Alcotest.test_case "crash and resume" `Quick test_crash_and_resume;
      Alcotest.test_case "change events start no emitter" `Quick test_change_events_silent;
      Alcotest.test_case "one beat per issuer at 1,000" `Quick test_beats_per_issuer_at_scale;
      Alcotest.test_case "expiry deferred while down" `Quick test_expiry_deferred;
      Alcotest.test_case "tombstone published last" `Quick test_tombstone_published_last;
      Alcotest.test_case "expiry while the issuer is down" `Quick test_expiry_while_down;
    ] )
