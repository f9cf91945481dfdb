(* The issuer side of Fig. 5, shared by services and CIV clusters: credential
   records, per-record heartbeat emitters, retained tombstones and expiry. *)

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
   the issuer is back, through the normal revoke path: under change events
   the tombstone reaches the gate, under heartbeats the emitter stops and
   reconciliation finds the record revoked. Without the crash the role
   collapses at the deadline. *)
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

(* Under heartbeats a record beats from [add] until [revoke]; a revoke runs
   the caller's bookkeeping once, and only on the call that flips it. *)
let test_beats_until_revoked () =
  let world = World.create ~monitoring:heartbeats () in
  let records = store world in
  let id = add records world in
  World.run_until world 12.0;
  Alcotest.(check int) "beats at t=5 and t=10" 2 (beats world);
  let bookkept = ref 0 in
  let revoke () =
    Issuer_records.revoke records id ~reason:"test" ~bookkeeping:(fun _ -> incr bookkept)
  in
  Alcotest.(check bool) "first revoke flips the record" true (revoke ());
  World.run_until world 60.0;
  Alcotest.(check int) "no beat after the revoke" 2 (beats world);
  Alcotest.(check bool) "second revoke" false (revoke ());
  Alcotest.(check int) "bookkeeping ran once" 1 !bookkept;
  Alcotest.(check bool) "revoked record" false (Issuer_records.is_valid records id);
  Alcotest.(check bool) "unknown id" false
    (Issuer_records.is_valid records (World.fresh_cert_id world))

(* A crash silences every emitter; [resume] restarts the valid records'
   emitters and leaves the revoked ones silent. *)
let test_crash_and_resume () =
  let world = World.create ~monitoring:heartbeats () in
  let records = store world in
  let live = add records world and dead = add records world in
  ignore (Issuer_records.revoke records dead ~reason:"test" ~bookkeeping:ignore);
  World.run_until world 7.0;
  Alcotest.(check int) "one live emitter" 1 (beats world);
  Issuer_records.stop_emitters records;
  World.run_until world 30.0;
  Alcotest.(check int) "silent while crashed" 1 (beats world);
  Issuer_records.resume records;
  World.run_until world 36.0;
  Alcotest.(check int) "the live record beats again" 2 (beats world);
  Alcotest.(check bool) "still valid" true (Issuer_records.is_valid records live)

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

(* The tombstone is published after the caller's bookkeeping, so a
   service's [svc.revoke] event and its Revoke decision record precede the
   [broker.publish] of the tombstone in the trace. *)
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
  let topic = Cr.topic_of ~issuer:(Service.id svc) ~cert_id:rmc.Oasis_cert.Rmc.id in
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
      Alcotest.test_case "beats until revoked" `Quick test_beats_until_revoked;
      Alcotest.test_case "crash and resume" `Quick test_crash_and_resume;
      Alcotest.test_case "expiry deferred while down" `Quick test_expiry_deferred;
      Alcotest.test_case "tombstone published last" `Quick test_tombstone_published_last;
      Alcotest.test_case "expiry while the issuer is down" `Quick test_expiry_while_down;
    ] )
