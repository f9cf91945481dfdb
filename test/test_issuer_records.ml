(* The issuer side of Fig. 5, shared by services and CIV clusters: credential
   records (which are the tombstones), the issuer's beats and expiry. *)

module World = Oasis_core.World
module Service = Oasis_core.Service
module Principal = Oasis_core.Principal
module Civ = Oasis_domain.Civ
module Issuer_records = Oasis_core.Issuer_records
module Fault = Oasis_sim.Fault
module Value = Oasis_util.Value
module Issuer_key = Oasis_cert.Issuer_key
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

(* An issuer's records under an HMAC key, for [issuer] or a fresh one. *)
let store ?is_down ?issuer world =
  let subject = match issuer with Some id -> id | None -> World.fresh_service_id world in
  Issuer_records.create ?is_down world
    (Issuer_key.create (World.authority world) ~rng:(World.rng world) ~subject
       ~offline_sign:false ~now:(World.now world))

let add ?expires_at ?(on_expire = ignore) records world =
  let appt, _record =
    Issuer_records.issue records ~principal:(World.fresh_principal_id world) ~name:"badge"
      ~args:[]
      (Issuer_records.Appointment { holder_key = "holder"; expires_at; expire = on_expire })
  in
  appt.Oasis_cert.Appointment.id

(* Every beat heard on [issuer]'s channel, as (epoch, revoked), oldest
   first. *)
let heard world issuer =
  let beats = ref [] in
  ignore
    (Broker.subscribe (World.broker world) (Issuer_records.beat_topic issuer)
       ~owner:(World.fresh_service_id world) (fun _topic { Protocol.epoch; revoked } ->
         beats := (epoch, revoked) :: !beats));
  fun () -> List.rev !beats

let beat = Alcotest.(pair int (list (testable Ident.pp Ident.equal)))

(* Under heartbeats the issuer beats once per period from its first record
   on, revoked records or not, and its next beat lists each revocation
   once; a revoke runs the caller's bookkeeping once, and only on the call
   that flips it. *)
let test_next_beat_lists_revocation () =
  let world = World.create ~monitoring:heartbeats () in
  let issuer = World.fresh_service_id world in
  let records = store ~issuer world in
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
  let records = store ~issuer world in
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

(* Under change events a heal re-sends the latest beat of each issuer its
   partition named, and of no other: issuers A and B have both revoked a
   record, a partition cuts only A from a reader, and its heal publishes
   A's latest beat once and nothing of B's. *)
let test_heal_resends_named_issuers () =
  let world = World.create () in
  let a = World.fresh_service_id world and b = World.fresh_service_id world in
  let reader = World.fresh_service_id world in
  let heard_a = heard world a and heard_b = heard world b in
  List.iter
    (fun issuer ->
      let records = store ~issuer world in
      ignore (Issuer_records.revoke records (add records world) ~reason:"test" ~bookkeeping:ignore))
    [ a; b ];
  World.settle world;
  let fault = World.fault world in
  Fault.partition fault ~name:"a-cut" [ a ] [ reader ];
  let published () = Fixtures.metric (World.obs world) "broker.published" in
  let before = published () in
  Fault.heal fault "a-cut";
  Alcotest.(check int) "one beat published at the heal" 1 (published () - before);
  World.settle world;
  Alcotest.(check (list beat)) "A's latest beat, re-sent" [ (1, []); (1, []) ]
    (List.map (fun (epoch, _) -> (epoch, [])) (heard_a ()));
  Alcotest.(check int) "nothing from B" 1 (List.length (heard_b ()))

(* ------------------------------------------------------------------ *)
(* An issuer accepts exactly what it issued                            *)
(* ------------------------------------------------------------------ *)

module Rmc = Oasis_cert.Rmc
module Appointment = Oasis_cert.Appointment
module Vcache = Oasis_cert.Validation_cache
module Sha256 = Oasis_crypto.Sha256
module Network = Oasis_sim.Network

type issued_by = Service_rmc | Service_appointment | Civ_appointment

(* What happens to the original after it is issued: nothing; revocation;
   a key rotation; its expiry at t=50; or that expiry passing while the
   issuer is down (a service crashed, a CIV's primary down) from t=40 to
   t=60. *)
type fate = Kept | Revoked | Rotated | Expired | Expired_while_down

let flip_signature digest =
  let raw = Bytes.of_string (Sha256.to_raw_string digest) in
  Bytes.set raw 0 (Char.chr (Char.code (Bytes.get raw 0) lxor 1));
  Option.get (Sha256.of_raw_string (Bytes.to_string raw))

let elsewhere = Ident.make "service" 4242 and unissued = Ident.make "cert" 4242

(* Every copy of [r] that differs from it in one field, and in the session
   key it is presented under. *)
let rmc_copies (r : Rmc.t) ~key ~other_key =
  let copy ?(id = r.id) ?(issuer = r.issuer) ?(role = r.role) ?(args = r.args)
      ?(issued_at = r.issued_at) ?(signature = r.signature) ?(key = key) () =
    Vcache.Rmc (Rmc.of_parts ~id ~issuer ~role ~args ~issued_at ~signature, key)
  in
  [
    copy ~id:unissued ();
    copy ~issuer:elsewhere ();
    copy ~role:"admin" ();
    copy ~args:[ Value.Int 666 ] ();
    copy ~issued_at:(r.issued_at +. 1.0) ();
    copy ~signature:(flip_signature r.signature) ();
    copy ~key:other_key ();
  ]

let appointment_copies (a : Appointment.t) =
  let copy ?(id = a.id) ?(issuer = a.issuer) ?(kind = a.kind) ?(args = a.args)
      ?(holder = a.holder) ?(issued_at = a.issued_at) ?(expires_at = a.expires_at)
      ?(epoch = a.epoch) ?(signature = a.signature) () =
    Vcache.Appointment
      (Appointment.of_parts ~id ~issuer ~kind ~args ~holder ~issued_at ~expires_at ~epoch
         ~signature)
  in
  [
    copy ~id:unissued ();
    copy ~issuer:elsewhere ();
    copy ~kind:"admin" ();
    copy ~args:(Value.Int 666 :: a.args) ();
    copy ~holder:(a.holder ^ "x") ();
    copy ~issued_at:(a.issued_at +. 1.0) ();
    copy ~expires_at:None ();
    copy ~epoch:(a.epoch + 1) ();
    copy ~signature:(flip_signature a.signature) ();
  ]

(* An issuer with one certificate issued at t≈0 (an appointment expiring at
   t=50), and the ways to put a presentation to it: shown to the issuer and
   as a [Validate] callback, each [true] when accepted. For a CIV both go to
   the router, three times over, so every replica answers. *)
type issuer = {
  original : Vcache.presented;
  copies : Vcache.presented list;
  shown : Vcache.presented -> bool;
  validate : Vcache.presented -> bool;
  revoke : unit -> unit;
  rotate : unit -> unit;
  down : unit -> unit;
  up : unit -> unit;
}

let validate_at world ~src ~dst presented =
  World.run_proc world (fun () ->
      match Network.rpc (World.network world) ~src ~dst (Protocol.Validate presented) with
      | Protocol.Validate_result ok -> ok
      | _ -> false)

let service_issuer world ~offline_sign ~kind =
  let svc =
    Service.create world ~name:"issuer"
      ~config:{ Service.default_config with offline_sign }
      ~policy:
        "initial boot <- env:eq(1, 1); user <- boot; appoint badge(u) <- boot; initial \
         member(u) <- appt:badge(u);"
      ()
  in
  let p = Principal.create world ~name:"p" in
  let session, other, rmc, appt =
    World.run_proc world (fun () ->
        let s = Principal.start_session p in
        let rmc = ok (Principal.activate p s svc ~role:"boot" ()) in
        let appt =
          ok
            (Principal.appoint p s svc ~kind:"badge"
               ~args:[ Value.Id (Principal.id p) ]
               ~holder:p ~expires_at:50.0 ())
        in
        (s, Principal.start_session p, rmc, appt))
  in
  let key = Principal.session_key session in
  let shown presented =
    let activate s ~role creds =
      Result.is_ok
        (World.run_proc world (fun () -> Principal.activate_with p s svc ~role ~creds ()))
    in
    match presented with
    | Vcache.Rmc (rmc, k) ->
        activate (if String.equal k key then session else other) ~role:"user"
          { Protocol.no_credentials with rmcs = [ rmc ] }
    | Vcache.Appointment appt ->
        activate session ~role:"member" { Protocol.no_credentials with appointments = [ appt ] }
  in
  let original, copies =
    match kind with
    | Service_rmc ->
        (Vcache.Rmc (rmc, key), rmc_copies rmc ~key ~other_key:(Principal.session_key other))
    | Service_appointment | Civ_appointment ->
        (Vcache.Appointment appt, appointment_copies appt)
  in
  {
    original;
    copies;
    shown;
    validate = validate_at world ~src:(Principal.id p) ~dst:(Service.id svc);
    revoke =
      (fun () ->
        assert (Service.revoke_certificate svc (Vcache.presented_id original) ~reason:"test"));
    rotate = (fun () -> Service.rotate_secret svc);
    down = (fun () -> Service.crash svc);
    up = (fun () -> Service.restart svc);
  }

let civ_issuer world ~offline_sign =
  let civ = Civ.create world ~name:"civ" ~offline_sign () in
  let p = Principal.create world ~name:"p" in
  let appt =
    Civ.issue civ ~kind:"badge"
      ~args:[ Value.Id (Principal.id p) ]
      ~holder:(Principal.id p) ~holder_key:(Principal.longterm_public p) ~expires_at:50.0 ()
  in
  let validate presented =
    List.for_all Fun.id
      (List.init 3 (fun _ -> validate_at world ~src:(Principal.id p) ~dst:(Civ.id civ) presented))
  in
  {
    original = Vcache.Appointment appt;
    copies = appointment_copies appt;
    shown = validate;
    validate;
    revoke = (fun () -> assert (Civ.revoke civ appt.id ~reason:"test"));
    rotate = (fun () -> Civ.rotate_secret civ);
    down = (fun () -> Civ.set_replica_down civ 0 true);
    up = (fun () -> Civ.set_replica_down civ 0 false);
  }

let accepts_exactly_what_it_issued (kind, offline_sign, copy, fate, seed) =
  let world = World.create ~seed () in
  let issuer =
    match kind with
    | Service_rmc | Service_appointment -> service_issuer world ~offline_sign ~kind
    | Civ_appointment -> civ_issuer world ~offline_sign
  in
  let presented =
    match copy with
    | None -> issuer.original
    | Some i -> List.nth issuer.copies (i mod List.length issuer.copies)
  in
  let accepted () = (issuer.shown presented, issuer.validate presented) in
  let before = accepted () in
  (match fate with
  | Kept -> ()
  | Revoked -> issuer.revoke ()
  | Rotated -> issuer.rotate ()
  | Expired -> World.run_until world 60.0
  | Expired_while_down ->
      World.run_until world 40.0;
      issuer.down ();
      World.run_until world 60.0;
      (* A CIV's replicas still answer while the primary is down and the
         record is still valid: the expiry test alone refuses. *)
      if kind = Civ_appointment then
        assert (not (issuer.validate issuer.original));
      issuer.up ());
  let after = accepted () in
  let original = Option.is_none copy in
  let survives =
    match (fate, kind) with
    | Kept, _ | (Rotated | Expired | Expired_while_down), Service_rmc -> true
    | Revoked, _ | (Rotated | Expired | Expired_while_down), (Service_appointment | Civ_appointment)
      ->
        false
  in
  before = (original, original) && after = (original && survives, original && survives)

let test_accepts_exactly_what_it_issued () =
  let gen =
    QCheck.Gen.(
      tup5
        (oneofl [ Service_rmc; Service_appointment; Civ_appointment ])
        bool
        (opt (int_bound 8))
        (oneofl [ Kept; Revoked; Rotated; Expired; Expired_while_down ])
        (int_bound 1000))
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:150 ~name:"an issuer accepts exactly what it issued"
       (QCheck.make gen) accepts_exactly_what_it_issued)

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
      Alcotest.test_case "heal re-sends only named issuers" `Quick test_heal_resends_named_issuers;
      Alcotest.test_case "an issuer accepts exactly what it issued" `Quick
        test_accepts_exactly_what_it_issued;
    ] )
