(* Regression tests for the active-security fixes:
   - non-ground negation is a refused request, not a silent "proved"
   - a retired heartbeat monitor releases its engine timer
   - decommission releases cache-invalidation subscriptions and the cache
   - rule installation keeps insertion order (first-installed rule wins)
   - fact-change cost follows the tuple index, not the RMC population or
     the other tuples of the changed predicate
   and for the observability-era network/broker fixes:
   - a raising RPC handler fails the round trip instead of stranding it
   - drops are attributed to exactly one cause; broker suppression of
     in-flight deliveries after unsubscribe is visible in the stats
   and for the per-call crypto and audit kernels:
   - SHA-256, modular exponentiation, Schnorr verification, a warm key-chain
     check, sizing a five-credential invocation and a decision-log append
     with its export line stay within minor-heap allocation budgets *)

module World = Oasis_core.World
module Service = Oasis_core.Service
module Principal = Oasis_core.Principal
module Protocol = Oasis_core.Protocol
module Civ = Oasis_domain.Civ
module Audit = Oasis_trust.Audit
module Env = Oasis_policy.Env
module Engine = Oasis_sim.Engine
module Broker = Oasis_event.Broker
module Cr = Oasis_cert.Credential_record
module Network = Oasis_sim.Network
module Proc = Oasis_sim.Proc
module Ident = Oasis_util.Ident
module Rng = Oasis_util.Rng
module Obs = Oasis_obs.Obs
module Value = Oasis_util.Value
open Fixtures

(* A negated constraint over an unbound variable must be refused as a bad
   request (negation as failure is only sound on ground instances), while
   the same role pinned to a concrete argument activates normally. The
   lint gate rejects this rule at install (L003), so it is added past the
   gate: this test proves the runtime path behind the gate stays sound. *)
let test_nonground_negation_denied () =
  let world = World.create ~seed:11 () in
  let svc = Service.create world ~name:"risky" ~policy:"" () in
  add_unlinted svc "initial risky(u) <- env:!banned(u);";
  Env.declare_fact (Service.env svc) "banned";
  let p = Principal.create world ~name:"p" in
  World.run_proc world (fun () ->
      let s = Principal.start_session p in
      (match Principal.activate p s svc ~role:"risky" () with
      | Error (Protocol.Bad_request _) -> ()
      | Ok _ -> Alcotest.fail "non-ground negation granted"
      | Error d ->
          Alcotest.failf "expected Bad_request, got %s" (Protocol.denial_to_string d));
      ignore
        (ok (Principal.activate p s svc ~role:"risky" ~args:[ Some (Value.Int 1) ] ())));
  Alcotest.(check int) "refusal recorded" 1 (Service.stats svc).Service.activations_denied

(* A retired heartbeat monitor must cancel its pending deadline check;
   previously the cancel handle was dropped and dead monitors kept a timer
   in the heap. Releasing the last role a service watches on an issuer
   retires its monitor there: one timer fewer, and the issuer's silence is
   no miss. *)
let test_heartbeat_cancel_releases_timer () =
  let world = World.create ~monitoring:(World.Heartbeats { period = 1.0; deadline = 2.5 }) () in
  let issuer = Service.create world ~name:"issuer" ~policy:"initial base <- env:eq(1, 1);" () in
  let relying = Service.create world ~name:"relying" ~policy:"derived <- *base@issuer;" () in
  let p = Principal.create world ~name:"p" in
  let s = Principal.start_session p in
  let derived =
    World.run_proc world (fun () ->
        ignore (ok (Principal.activate p s issuer ~role:"base" ()));
        ok (Principal.activate p s relying ~role:"derived" ()))
  in
  let engine = World.engine world in
  let before = Engine.pending engine in
  Alcotest.(check bool) "released" true
    (World.run_proc world (fun () -> Principal.deactivate p s derived));
  Alcotest.(check int) "the deadline check is cancelled" (before - 1) (Engine.pending engine);
  Service.crash issuer;
  World.run_until world 10.0;
  Alcotest.(check bool) "no miss after the monitor retired" true
    (Obs.value (World.obs world) "hb.misses" = None)

(* Decommissioning or crashing a service must drop its validation cache
   and unsubscribe its cache-invalidation watches on other issuers' event
   channels. *)
let test_teardown_releases_cache_watches teardown () =
  let world = World.create ~seed:13 () in
  (* The regression is about releasing cache-invalidation watches, which
     only the callback path installs (offline verification does not
     populate the positive cache), so the CIV signs with the epoch HMAC. *)
  let civ = Civ.create world ~name:"authority" ~offline_sign:false () in
  let svc =
    Service.create world ~name:"club" ~policy:"initial member(u) <- *appt:badge(u)@authority;" ()
  in
  let p = Principal.create world ~name:"p" in
  let badge =
    Civ.issue civ ~kind:"badge"
      ~args:[ Value.Id (Principal.id p) ]
      ~holder:(Principal.id p) ~holder_key:(Principal.longterm_public p) ()
  in
  Principal.grant_appointment p badge;
  World.settle world;
  World.run_proc world (fun () ->
      let s = Principal.start_session p in
      ignore (ok (Principal.activate p s svc ~role:"member" ())));
  let topic = Oasis_core.Issuer_records.beat_topic (Civ.id civ) in
  (* Who still listens on the badge issuer's feed: a repeat of the CIV's
     current beat, which the watches meet by reading tombstones that are not
     there, reaches every live subscription, counted as notified or
     suppressed, and no released one. *)
  let listeners () =
    let addressed () =
      List.fold_left
        (fun acc key -> acc + Fixtures.metric (World.obs world) key)
        0
        [
          "broker.notified"; "broker.suppressed{cause=unsubscribed}";
          "broker.suppressed{cause=partitioned}";
        ]
    in
    let before = addressed () in
    let epoch =
      Option.get (World.feed_epoch world ~issuer:(Civ.id civ) ~reader:(Civ.id civ))
    in
    Broker.publish ~src:(Civ.id civ) (World.broker world) topic { Protocol.epoch; revoked = [] };
    World.settle world;
    addressed () - before
  in
  Alcotest.(check bool) "badge topic watched while active" true (listeners () > 0);
  (* A second member role on a second badge, each with its dependency and
     cache watches: the club still has one subscription on the CIV's feed. *)
  let q = Principal.create world ~name:"q" in
  Principal.grant_appointment q
    (Civ.issue civ ~kind:"badge"
       ~args:[ Value.Id (Principal.id q) ]
       ~holder:(Principal.id q) ~holder_key:(Principal.longterm_public q) ());
  World.run_proc world (fun () ->
      ignore (ok (Principal.activate q (Principal.start_session q) svc ~role:"member" ())));
  Alcotest.(check int) "one subscription on the issuer's feed for every watch" 1 (listeners ());
  (* The cache's content shows in how a re-presentation of the badge is
     counted: a hit (positive entry), a negative hit, or a miss (none). *)
  let lookups () =
    List.map
      (fun key -> Fixtures.metric (World.obs world) (key ^ "{service=club}"))
      [ "vcache.hits"; "vcache.negative_hits"; "vcache.misses" ]
  in
  let present () =
    let before = lookups () in
    World.run_proc world (fun () ->
        ignore (Principal.activate p (Principal.start_session p) svc ~role:"member" ()));
    List.map2 ( - ) (lookups ()) before
  in
  Alcotest.(check (list int)) "verdict cached" [ 1; 0; 0 ] (present ());
  teardown svc;
  World.settle world;
  Alcotest.(check int) "badge topic released" 0 (listeners ());
  (* A crashed service answers nothing; back up, it has an empty cache. *)
  if Service.is_crashed svc then Service.restart svc;
  Alcotest.(check (list int)) "cache emptied, no cached negatives" [ 0; 0; 1 ] (present ())

(* Rules for the same role must be tried in installation order: the first
   rule binds the unpinned parameter even when a later rule also proves. *)
let test_rule_order_preserved () =
  let world = World.create ~seed:17 () in
  let svc =
    Service.create world ~name:"ordered"
      ~policy:{|
        initial pick(x) <- env:src1(x);
        initial pick(x) <- env:src2(x);
      |}
      ()
  in
  let env = Service.env svc in
  Env.declare_fact env "src1";
  Env.declare_fact env "src2";
  Env.assert_fact env "src1" [ Value.Int 1 ];
  Env.assert_fact env "src2" [ Value.Int 2 ];
  let p = Principal.create world ~name:"p" in
  World.run_proc world (fun () ->
      let s = Principal.start_session p in
      ignore (ok (Principal.activate p s svc ~role:"pick" ()));
      (* The later rule is still reachable when explicitly pinned. *)
      ignore (ok (Principal.activate p s svc ~role:"pick" ~args:[ Some (Value.Int 2) ] ())));
  let args_granted =
    List.map (fun (_, args, _) -> args) (Fixtures.active_named svc "pick")
  in
  Alcotest.(check bool) "first-installed rule bound the parameter" true
    (List.mem [ Value.Int 1 ] args_granted);
  Alcotest.(check int) "both activations granted" 2 (List.length args_granted)

(* One fact change must re-examine only the RMCs watching that ground
   tuple. The hospital world holds 5 active RMCs but only treating_doctor
   watches env:assigned, and only the tuple it was granted on; changes to
   an unwatched predicate or to another tuple of the watched one must cost
   nothing. *)
let test_fact_change_cost_indexed () =
  let t = make () in
  let _session = alice_treating t ~patient:7 in
  let env = Service.env t.hospital in
  let alice = Value.Id (Principal.id t.alice) in
  Env.declare_fact env "unrelated";
  Alcotest.(check int) "one watcher of assigned" 1
    (Service.env_watcher_count t.hospital "assigned");
  Alcotest.(check int) "one watcher of the granted tuple" 1
    (Service.env_watcher_count_tuple t.hospital "assigned" [ alice; Value.Int 7 ]);
  Alcotest.(check int) "excluded is unmarked, unwatched" 0
    (Service.env_watcher_count t.hospital "excluded");
  let before = (Service.stats t.hospital).Service.env_rechecks in
  let rechecks () = (Service.stats t.hospital).Service.env_rechecks - before in
  Env.assert_fact env "unrelated" [ Value.Int 1 ];
  Alcotest.(check int) "unwatched change re-checks nothing" 0 (rechecks ());
  Env.assert_fact env "assigned" [ alice; Value.Int 999 ];
  Alcotest.(check int) "sentinel tuple re-checks nothing" 0 (rechecks ());
  Alcotest.(check int) "role survived the sentinel change" 1
    (List.length (Fixtures.active_named t.hospital "treating_doctor"));
  Env.retract_fact env "assigned" [ alice; Value.Int 7 ];
  World.settle t.world;
  Alcotest.(check int) "watched tuple re-checks exactly its watcher" 1 (rechecks ());
  Alcotest.(check int) "role collapsed with its fact" 0
    (List.length (Fixtures.active_named t.hospital "treating_doctor"));
  Alcotest.(check int) "index emptied" 0 (Service.env_watcher_count t.hospital "assigned")

let activate_pinned world p session svc role args =
  World.run_proc world (fun () ->
      Principal.activate p session svc ~role ~args:(List.map Option.some args) ())

(* Two RMCs watching one tuple are both re-checked by its change; a negated
   watch shares the bucket of its fact, so asserting exactly that tuple
   revokes the role and nothing else. *)
let test_shared_tuple_and_negated_watch () =
  let world = World.create ~seed:3 () in
  let svc =
    Service.create world ~name:"ward"
      ~policy:
        {|
          initial observe(d, p) <- *env:assigned(d, p);
          initial consult(d, p) <- *env:assigned(d, p), *env:!excluded(d, p);
        |}
      ()
  in
  let env = Service.env svc in
  Env.declare_fact env "excluded";
  let tuple p = [ Value.Int 1; Value.Int p ] in
  Env.assert_fact env "assigned" (tuple 2);
  Env.assert_fact env "assigned" (tuple 3);
  let doc = Principal.create world ~name:"doc" in
  let session = World.run_proc world (fun () -> Principal.start_session doc) in
  List.iter
    (fun (role, p) -> ignore (ok (activate_pinned world doc session svc role (tuple p))))
    [ ("observe", 2); ("consult", 2); ("consult", 3) ];
  let rechecks_total () = (Service.stats svc).Service.env_rechecks in
  let before = ref (rechecks_total ()) in
  let rechecks () = rechecks_total () - !before in
  let active role = List.length (Fixtures.active_named svc role) in
  Alcotest.(check int) "two watchers of assigned(1, 2)" 2
    (Service.env_watcher_count_tuple svc "assigned" (tuple 2));
  Alcotest.(check int) "one negated watcher of excluded(1, 3)" 1
    (Service.env_watcher_count_tuple svc "!excluded" (tuple 3));
  Alcotest.(check int) "three distinct watchers of assigned" 3
    (Service.env_watcher_count svc "assigned");
  before := rechecks_total ();
  Env.assert_fact env "excluded" (tuple 999);
  Alcotest.(check int) "sentinel exclusion re-checks nothing" 0 (rechecks ());
  Env.assert_fact env "excluded" (tuple 3);
  World.settle world;
  Alcotest.(check int) "exclusion re-checks its one watcher" 1 (rechecks ());
  Alcotest.(check int) "excluded consult revoked" 1 (active "consult");
  Alcotest.(check int) "observe untouched" 1 (active "observe");
  before := rechecks_total ();
  Env.retract_fact env "assigned" (tuple 2);
  World.settle world;
  Alcotest.(check int) "shared tuple re-checks both watchers" 2 (rechecks ());
  Alcotest.(check int) "consult gone" 0 (active "consult");
  Alcotest.(check int) "observe gone" 0 (active "observe");
  Alcotest.(check int) "index emptied" 0 (Service.env_watcher_count svc "assigned")

(* Overlapping, negated and multi-tuple watches: [solo] and [guarded] watch
   the same [a] tuple, [guarded] also watches [!b], and [pair] watches two
   tuples of [a] (one tuple twice when x = y). *)
let overlap_policy =
  {|
    initial solo(x, y) <- *env:a(x, y);
    initial guarded(x, y) <- *env:a(x, y), *env:!b(x);
    initial pair(x, y) <- *env:a(x, y), *env:a(y, x);
  |}

let overlap_watches role args =
  match (role, args) with
  | "solo", [ x; y ] -> [ ("a", [ x; y ]) ]
  | "guarded", [ x; y ] -> [ ("a", [ x; y ]); ("!b", [ x ]) ]
  | "pair", [ x; y ] -> [ ("a", [ x; y ]); ("a", [ y; x ]) ]
  | _ -> Alcotest.failf "unexpected role %s" role

(* Random fact-change schedules over a small tuple space: after every
   change, no still-valid RMC holds an env watch that [Env.check_hold]
   rejects, and the active set equals the schedule's prediction, the
   grants whose conditions held at every change since. *)
let test_tuple_index_keeps_only_holding_roles () =
  let granted = ref 0 and revoked = ref 0 in
  for seed = 1 to 20 do
    let world = World.create ~seed () in
    let svc = Service.create world ~name:"overlap" ~policy:overlap_policy () in
    let env = Service.env svc in
    Env.declare_fact env "a";
    Env.declare_fact env "b";
    let p = Principal.create world ~name:"p" in
    let session = World.run_proc world (fun () -> Principal.start_session p) in
    let rng = Rng.create seed in
    let v () = Value.Int (Rng.int rng 3) in
    let holds role args =
      List.for_all (fun (name, tuple) -> Env.check_hold env name tuple) (overlap_watches role args)
    in
    let expected = ref [] in
    for step = 1 to 80 do
      (match Rng.int rng 6 with
      | 0 -> Env.assert_fact env "a" [ v (); v () ]
      | 1 -> Env.retract_fact env "a" [ v (); v () ]
      | 2 -> Env.assert_fact env "b" [ v () ]
      | 3 -> Env.retract_fact env "b" [ v () ]
      | _ -> (
          let role = Rng.pick rng [ "solo"; "guarded"; "pair" ] in
          let args = [ v (); v () ] in
          match activate_pinned world p session svc role args with
          | Ok rmc ->
              incr granted;
              expected := (rmc.Oasis_cert.Rmc.id, role, args) :: !expected
          | Error _ ->
              if holds role args then
                Alcotest.failf "seed %d step %d: %s denied though its conditions hold" seed step
                  role));
      World.settle world;
      let still = List.filter (fun (_, role, args) -> holds role args) !expected in
      revoked := !revoked + List.length !expected - List.length still;
      expected := still;
      let active = Service.active_roles svc in
      List.iter
        (fun (id, role, args, _) ->
          if not (holds role args) then
            Alcotest.failf "seed %d step %d: %s still valid on a failing watch" seed step
              (Ident.to_string id))
        active;
      let ids l = List.sort Ident.compare l in
      Alcotest.(check (list string))
        (Printf.sprintf "seed %d step %d: active set" seed step)
        (List.map Ident.to_string (ids (List.map (fun (id, _, _) -> id) !expected)))
        (List.map Ident.to_string (ids (List.map (fun (id, _, _, _) -> id) active)));
      Alcotest.(check int) "every active role counts once under a" (List.length active)
        (Service.env_watcher_count svc "a")
    done
  done;
  (* Not vacuous: the schedules grant roles and revoke them through every
     kind of watch. *)
  Alcotest.(check bool) (Printf.sprintf "%d grants, %d revocations" !granted !revoked) true
    (!granted > 100 && !revoked > 40)

(* A trust change names its subject, so it re-checks only the roles gated
   on that subject's score; a duplicate filing moves no score and re-checks
   nothing. *)
let test_trust_change_rechecks_only_its_subject () =
  let world = World.create ~seed:5 () in
  let civ = Civ.create world ~name:"civ" () in
  let svc =
    Service.create world ~name:"gate" ~policy:"initial member(u) <- *env:trust_score(u) >= 0.4 ;"
      ()
  in
  let rechecks () = metric (World.obs world) "service.env_rechecks{service=gate}" in
  let subjects =
    List.map
      (fun name ->
        let p = Principal.create world ~name in
        let id = Principal.id p in
        World.run_proc world (fun () ->
            let session = Principal.start_session p in
            ignore
              (ok (Principal.activate p session svc ~role:"member" ~args:[ Some (Value.Id id) ] ())));
        id)
      [ "p1"; "p2"; "p3" ]
  in
  let p1 = List.hd subjects and peer = Principal.id (Principal.create world ~name:"peer") in
  Alcotest.(check int) "three trust_score watchers" 3 (Service.env_watcher_count svc "trust_score");
  List.iter
    (fun id ->
      Alcotest.(check int) "one watcher per subject" 1
        (Service.env_watcher_count_tuple svc "trust_score" [ Value.Id id; Value.Time 0.4 ]))
    subjects;
  let before = rechecks () in
  let cert =
    Civ.record_interaction civ ~client:p1 ~server:peer ~client_outcome:Audit.Fulfilled
      ~server_outcome:Audit.Fulfilled
  in
  Alcotest.(check bool) "p1's score moved" true (World.trust_score world p1 > 0.5);
  Alcotest.(check int) "p1's role re-checked, p2's and p3's not" 1 (rechecks () - before);
  let before = rechecks () in
  Alcotest.(check bool) "duplicate not filed" false
    (World.file_audit_certificate world cert ~party:p1);
  Alcotest.(check int) "a duplicate re-checks nothing" 0 (rechecks () - before);
  World.settle world;
  Alcotest.(check int) "all three roles kept" 3
    (List.length (Fixtures.active_named svc "member"))

(* Banded trust gates over random schedules of filings (both parties,
   fulfilled or breached), with and without decay. A listener registered
   after the service's sees each trust notification once the service has
   re-checked it: the notified subject's gated roles, no others, were
   re-checked; each role kept passes [Env.check_hold] and each revoked
   fails it, at that instant. A decay tick notifies every subject whose
   score moved, so right after one (after every step without decay) every
   active gated role passes the hold check: the roles a full re-check of
   every gate would keep. *)
let trust_gates = [ ("low", 0.45, 0.1); ("high", 0.6, 0.1) ]

let test_trust_recheck_keyed_by_subject () =
  let policy =
    String.concat "\n"
      (List.map
         (fun (role, theta, delta) ->
           Printf.sprintf "initial %s(u) <- *env:trust_score(u) >= %g ~ %g ;" role theta delta)
         trust_gates)
  in
  let crowded = ref 0 and revoked = ref 0 in
  for seed = 1 to 20 do
    let decay = seed mod 2 = 0 in
    let world = World.create ~seed () in
    let civ = Civ.create world ~name:"civ" () in
    let svc = Service.create world ~name:"gate" ~policy () in
    let env = Service.env svc in
    if decay then World.set_trust_decay world ~rate:0.2 ~tick:1.0;
    let rng = Rng.create seed in
    let subjects =
      Array.init (3 + Rng.int rng 3) (fun i ->
          let p = Principal.create world ~name:(Printf.sprintf "s%d" i) in
          (p, World.run_proc world (fun () -> Principal.start_session p)))
    in
    let holds (_, u, (_, theta, delta)) =
      Env.check_hold env "trust_score" [ Value.Id u; Value.Time theta; Value.Time delta ]
    in
    let is_active () =
      let ids = List.map (fun (id, _, _, _) -> id) (Service.active_roles svc) in
      fun (id, _, _) -> List.exists (Ident.equal id) ids
    in
    (* (rmc id, subject, gate) of every gated role the service granted and
       has not yet revoked. *)
    let model = ref [] in
    let rechecks () = metric (World.obs world) "service.env_rechecks{service=gate}" in
    let expected = ref 0 in
    World.on_trust_change world (fun u ->
        let mine, others = List.partition (fun (_, s, _) -> Ident.equal s u) !model in
        expected := !expected + List.length mine;
        if others <> [] then incr crowded;
        let kept, gone = List.partition (is_active ()) mine in
        List.iter
          (fun r ->
            if not (holds r) then Alcotest.failf "seed %d: kept a role that fails its hold" seed)
          kept;
        List.iter
          (fun r -> if holds r then Alcotest.failf "seed %d: revoked a role that holds" seed)
          gone;
        revoked := !revoked + List.length gone;
        model := kept @ others);
    let next_tick = ref 1.0 in
    for step = 1 to 80 do
      let before = rechecks () in
      expected := 0;
      let ticked =
        match Rng.int rng 10 with
        | 0 | 1 | 2 | 3 ->
            let n = Array.length subjects in
            let c = Rng.int rng n in
            let s = (c + 1 + Rng.int rng (n - 1)) mod n in
            let id i = Principal.id (fst subjects.(i)) in
            let outcome () = if Rng.bernoulli rng 0.5 then Audit.Fulfilled else Audit.Breached in
            let client_outcome = outcome () in
            ignore
              (Civ.record_interaction civ ~client:(id c) ~server:(id s) ~client_outcome
                 ~server_outcome:(outcome ())
                : Audit.t);
            false
        | 4 | 5 | 6 ->
            let p, session = Rng.pick rng (Array.to_list subjects) in
            let ((role, _, _) as gate) = Rng.pick rng trust_gates in
            let u = Principal.id p in
            if not (List.exists (fun (_, s, g) -> Ident.equal s u && g == gate) !model) then begin
              match
                World.run_proc world (fun () ->
                    Principal.activate p session svc ~role ~args:[ Some (Value.Id u) ] ())
              with
              | Ok rmc -> model := (rmc.Oasis_cert.Rmc.id, u, gate) :: !model
              | Error _ -> ()
            end;
            false
        | _ ->
            World.run_until world !next_tick;
            next_tick := !next_tick +. 1.0;
            true
      in
      Alcotest.(check int)
        (Printf.sprintf "seed %d step %d: re-checks = the notified subjects' gated roles" seed step)
        !expected
        (rechecks () - before);
      if ticked || not decay then
        List.iter
          (fun r ->
            if not (holds r) then
              Alcotest.failf "seed %d step %d: an active gated role fails its hold" seed step)
          !model;
      Alcotest.(check int)
        (Printf.sprintf "seed %d step %d: the model is the active set" seed step)
        (List.length !model)
        (List.length (Service.active_roles svc))
    done
  done;
  (* Not vacuous: notifications arrive while other subjects hold gated
     roles, and the gates revoke. *)
  Alcotest.(check bool)
    (Printf.sprintf "%d crowded notifications, %d revocations" !crowded !revoked)
    true
    (!crowded > 1000 && !revoked > 30)

let counting_handler received =
  fun ~src:_ m ->
    incr received;
    m

(* A handler that raises used to strand the caller on a never-filled ivar
   (the rpc blocked forever at a fixed virtual time). The round trip must
   fail fast with Rpc_dropped and be accounted under the handler_error
   cause. *)
let test_rpc_handler_error_fails_fast () =
  let engine = Engine.create () in
  let obs = Obs.create () in
  let net = Network.create engine (Rng.create 1) ~default_latency:1.0 ~obs () in
  let a = Ident.make "node" 0 and b = Ident.make "node" 1 in
  Network.add_node net a (counting_handler (ref 0));
  Network.add_node net b
    (fun ~src:_ _ -> failwith "handler bug");
  let outcome = ref `Pending in
  Proc.spawn engine (fun () ->
      match Network.rpc net ~src:a ~dst:b () with
      | _ -> outcome := `Replied
      | exception Network.Rpc_dropped -> outcome := `Dropped);
  Engine.run engine;
  (match !outcome with
  | `Dropped -> ()
  | `Replied -> Alcotest.fail "handler exception produced a reply"
  | `Pending -> Alcotest.fail "caller stranded: rpc never completed");
  Alcotest.(check int) "counted as handler_error" 1
    (Fixtures.metric obs "net.dropped{cause=handler_error}");
  Alcotest.(check int) "under no other cause" 1 (Fixtures.net_dropped obs)

(* Every drop carries exactly one cause, and conservation holds: sent =
   delivered + the drops summed over their causes. *)
let test_drop_causes_conserve_messages () =
  let engine = Engine.create () in
  let obs = Obs.create () in
  let net = Network.create engine (Rng.create 3) ~default_latency:1.0 ~obs () in
  let a = Ident.make "node" 0 and b = Ident.make "node" 1 and c = Ident.make "node" 2 in
  let got = ref 0 in
  Network.add_node net a (counting_handler got);
  Network.add_node net b (counting_handler got);
  Network.add_node net c (counting_handler got);
  Fixtures.post engine net ~src:a ~dst:(Ident.make "node" 9) ();
  Network.set_down net c true;
  Fixtures.post engine net ~src:c ~dst:a ();
  Network.set_down net c false;
  Fixtures.post engine net ~src:a ~dst:c ();
  ignore (Engine.schedule engine ~after:0.5 (fun () -> Network.set_down net c true));
  Fixtures.post engine net ~src:a ~dst:b ();
  Engine.run engine;
  let count key = Fixtures.metric obs key in
  Alcotest.(check int) "dst_missing" 1 (count "net.dropped{cause=dst_missing}");
  Alcotest.(check int) "src_down" 1 (count "net.dropped{cause=src_down}");
  Alcotest.(check int) "in_flight_down" 1 (count "net.dropped{cause=in_flight_down}");
  Alcotest.(check int) "no other cause" 3 (Fixtures.net_dropped obs);
  Alcotest.(check int) "conservation" (count "net.sent")
    (count "net.delivered" + Fixtures.net_dropped obs)

(* An unsubscribe while a publish is in flight suppresses the delivery;
   the accounting must show it: for each publish, subscribers at publish
   time = notified + suppressed. *)
let test_broker_inflight_unsubscribe_accounted () =
  let engine = Engine.create () in
  let obs = Obs.create () in
  let broker = Broker.create engine ~notify_latency:1.0 ~obs in
  let got = ref 0 in
  let owner = Ident.make "svc" 1 in
  let s1 = Broker.subscribe broker "t" ~owner (fun _ _ -> incr got) in
  let _s2 = Broker.subscribe broker "t" ~owner (fun _ _ -> incr got) in
  Broker.publish ~src:(Ident.make "issuer" 1) broker "t" ();
  Broker.unsubscribe broker s1;
  Engine.run engine;
  Alcotest.(check int) "one callback ran" 1 !got;
  let count key = Fixtures.metric obs key in
  Alcotest.(check int) "published" 1 (count "broker.published");
  Alcotest.(check int) "notified" 1 (count "broker.notified");
  Alcotest.(check int) "in-flight suppression visible" 1
    (count "broker.suppressed{cause=unsubscribed}");
  Alcotest.(check int) "no partition suppression" 0 (count "broker.suppressed{cause=partitioned}")

(* Minor-heap words per call, averaged over [n] calls after a warm-up. *)
let minor_words_per_call ?(n = 200) f =
  ignore (Sys.opaque_identity (f ()));
  let before = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Gc.minor_words () -. before) /. float_of_int n

let check_budget name ~budget f =
  let words = minor_words_per_call f in
  if words > budget then
    Alcotest.failf "%s allocates %.1f minor words per call (budget %.0f)" name words budget

(* The kernels run on every activation, invocation and decision. Budgets
   are about twice what the native-int kernels allocate; boxed Int32 words
   in SHA-256 (~9,000 words per KiB), boxed int64 in the field arithmetic
   (~3,600 per exponentiation) or a [Printf.sprintf "%02x"] per hex byte
   (~40 words each) overshoot them many times over. *)
let test_kernel_allocation_budgets () =
  let module Sha256 = Oasis_crypto.Sha256 in
  let module Modp = Oasis_crypto.Modp in
  let module Schnorr = Oasis_crypto.Schnorr in
  let module Signed = Oasis_cert.Signed in
  let kib = String.make 1024 'x' in
  (* SHA-256 and Schnorr are held at what they allocate: a digest is its
     context, chaining words, block and 32 output bytes (31 words), and a
     block costs nothing, however many are fed. A separate padding buffer,
     a string per HMAC pad or an [int64_be] string for the Schnorr [r]
     shows here. *)
  let big = Bytes.make 65536 'x' in
  List.iter
    (fun (kernel, init) ->
      check_budget
        (Printf.sprintf "Sha256 digest (1 KiB, %s kernel)" kernel)
        ~budget:31.
        (fun () ->
          let ctx = init () in
          Sha256.feed_string ctx kib;
          Sha256.finalize ctx);
      let ctx = init () in
      check_budget
        (Printf.sprintf "Sha256.feed_sub (64 KiB, %s kernel)" kernel)
        ~budget:0.
        (fun () -> Sha256.feed_sub ctx big 0 65536))
    [ ("probed", Sha256.init); ("portable", Sha256.init_portable) ];
  let rng = Rng.create 5 in
  let base = Modp.random rng and e = Modp.random rng in
  check_budget "Modp.pow" ~budget:6. (fun () -> Modp.pow base e);
  (* A table read allocates nothing: g^x boxes only its result, and
     signing and key-table verification allocate what they did by
     square-and-multiply (56 and 37 words). *)
  check_budget "Modp.pow_generator" ~budget:3. (fun () -> Modp.pow_generator e);
  let kp = Schnorr.generate rng in
  let msg = String.make 136 'c' in
  let sg = Schnorr.sign ~secret:kp.Schnorr.secret rng msg in
  check_budget "Schnorr.sign" ~budget:56. (fun () -> Schnorr.sign ~secret:kp.Schnorr.secret rng msg);
  check_budget "Schnorr.verify" ~budget:37. (fun () ->
      assert (Schnorr.verify ~public:kp.Schnorr.public msg sg));
  let key = Schnorr.key kp.Schnorr.public in
  check_budget "Schnorr.verify_key" ~budget:37. (fun () -> assert (Schnorr.verify_key key msg sg));
  check_budget "Hmac.mac" ~budget:72. (fun () -> Oasis_crypto.Hmac.mac ~key:"k" msg);
  (* Every [Ident.Tbl] lookup hashes its key: the record is hashed as it
     is, where a pair built per call cost 3 words. *)
  let id = Ident.make "cert" 4711 in
  check_budget "Ident.hash" ~budget:0. (fun () -> Ident.hash id);
  (* A key chain checked once answers from its memo: a memo that never hits
     costs the full check again, about 280 words. *)
  let auth = Signed.create_authority (Rng.create 6) in
  let address = Signed.address auth in
  let chain =
    Signed.enrol auth ~subject:(Ident.make "service" 1) ~subject_pk:kp.Schnorr.public ~key_epoch:0
      ~now:0.0
  in
  assert (Signed.verify_chain ~address chain);
  check_budget "Signed.verify_chain (warm)" ~budget:2. (fun () ->
      assert (Signed.verify_chain ~address chain));
  (* A certificate checked once answers the signature step from the
     validation cache: a certificate of either kind presented again under
     the same key certificate is compared with the remembered presentation,
     where its signing bytes and the Schnorr verify cost about 1,700
     words. *)
  let module Vcache = Oasis_cert.Validation_cache in
  let holder = Ident.make "principal" 7 in
  let appointment () =
    Vcache.Appointment
      (Signed.issue_appointment ~keypair:kp ~rng:(Rng.create 7) ~epoch:0 ~id:(Ident.make "cert" 8)
         ~issuer:(Ident.make "service" 1) ~kind:"qualified"
         ~args:[ Value.Id holder; Value.Time 2.5 ]
         ~holder:(String.make 40 'k') ~issued_at:1.0 ~expires_at:1e6 ())
  in
  let foreign_rmc () =
    let principal_key = String.make 40 'p' in
    Vcache.Rmc
      ( Signed.issue_rmc ~keypair:kp ~rng:(Rng.create 8) ~principal_key ~id:(Ident.make "cert" 10)
          ~issuer:(Ident.make "service" 1) ~role:"doctor" ~args:[ Value.Id holder; Value.Time 2.5 ]
          ~issued_at:1.0,
        principal_key )
  in
  let cache = Vcache.create () in
  List.iter
    (fun (name, presented) ->
      assert (Vcache.verify cache ~address ~chain ~now:5.0 (presented ()));
      let again = presented () in
      check_budget name ~budget:4. (fun () ->
          assert (Vcache.verify cache ~address ~chain ~now:5.0 again)))
    [
      ("Validation_cache.verify (re-presented appointment)", appointment);
      ("Validation_cache.verify (re-presented foreign RMC)", foreign_rmc);
    ];
  (* A service's own RMC is checked against the certificate as it issued
     it: a lookup and a field comparison with no signature check. *)
  let own = World.create () in
  let records =
    Oasis_core.Issuer_records.create own
      (Oasis_cert.Issuer_key.create (World.authority own) ~rng:(World.rng own)
         ~subject:(World.fresh_service_id own) ~offline_sign:false ~now:0.0)
  in
  let session_key = String.make 40 's' and args = [ Value.Id holder; Value.Time 2.5 ] in
  let rmc, _record =
    Oasis_core.Issuer_records.issue records ~principal:holder ~name:"doctor" ~args
      (Oasis_core.Issuer_records.Rmc { session_key })
  in
  let copy =
    Vcache.Rmc
      ( Oasis_cert.Rmc.of_parts ~id:rmc.id ~issuer:rmc.issuer ~role:rmc.role ~args
          ~issued_at:rmc.issued_at ~signature:rmc.signature,
        String.make 40 's' )
  in
  check_budget "own-RMC check (issued certificate)" ~budget:4. (fun () ->
      assert (Oasis_core.Issuer_records.check records copy));
  (* An invocation presenting five credentials, sized as the network counts
     it: from field lengths, where encoding every certificate to measure it
     cost about 1,700 words. *)
  let module Rmc = Oasis_cert.Rmc in
  let module Appointment = Oasis_cert.Appointment in
  let signature = Sha256.digest_string "" in
  let patient = Value.Int 4711 and issuer = Ident.make "service" 2 in
  let rmc n role args =
    Rmc.of_parts ~id:(Ident.make "cert" n) ~issuer ~role ~args ~issued_at:(12.5 +. float n)
      ~signature
  in
  let appt n kind =
    Appointment.of_parts ~id:(Ident.make "cert" n) ~issuer:(Ident.make "civ" 1) ~kind
      ~args:[ Value.Id (Ident.make "principal" 7) ]
      ~holder:(String.make 40 'k') ~issued_at:1.0 ~expires_at:(Some 1e6) ~epoch:0 ~signature
  in
  let invoke =
    Protocol.Invoke
      {
        principal = Ident.make "principal" 7;
        session_key = String.make 40 's';
        privilege = "read_record";
        args = [ Value.Id (Ident.make "principal" 7); patient ];
        creds =
          {
            Protocol.rmcs =
              [
                rmc 10 "logged_in" [ Value.Id (Ident.make "principal" 7) ];
                rmc 11 "doctor" [ Value.Id (Ident.make "principal" 7) ];
                rmc 12 "treating_doctor" [ Value.Id (Ident.make "principal" 7); patient ];
              ];
            appointments = [ appt 13 "employee"; appt 14 "qualified" ];
          };
      }
  in
  check_budget "Protocol.size_of (Invoke, 5 credentials)" ~budget:420. (fun () ->
      Protocol.size_of invoke);
  (* Arguments are sized from their lengths; rendering each one with
     [Value.to_string] to measure it cost 54 words here. *)
  let bare =
    match invoke with
    | Protocol.Invoke i -> Protocol.Invoke { i with creds = { rmcs = []; appointments = [] } }
    | _ -> assert false
  in
  check_budget "Protocol.size_of (Invoke, 2 arguments, no credentials)" ~budget:8. (fun () ->
      Protocol.size_of bare);
  (* The wire writers allocate nothing: every length prefix comes from the
     field lengths and every byte goes straight into the caller's buffer,
     where a [Printf] per float or identifier and a sub-buffer per value
     list cost about 300 words for these fields. *)
  let module Wire = Oasis_cert.Wire in
  let fields =
    [
      Wire.Fint 3;
      Wire.Ffloat 12.5;
      Wire.Fident (Ident.make "principal" 7);
      Wire.Fvalues [ Value.Id (Ident.make "principal" 7); patient; Value.Time 3.25 ];
      Wire.Fstring "treating_doctor";
    ]
  in
  let reused = Bytes.create (Wire.encoded_length "decision" fields) in
  check_budget "Wire.write (reused buffer)" ~budget:2. (fun () ->
      Wire.write reused 0 "decision" fields);
  (* A grant as Audit_trail.log records it. *)
  let doctor = Ident.make "principal" 7 in
  let grant log () =
    Dlog.append log ~at:12.5 ~decision:Dlog.Grant ~principal:doctor ~action:"treating_doctor"
      ~args:[ Value.Id doctor; Value.Int 42 ]
      ~rule:"treating_doctor(d, p) <- doctor(d), env:assigned(d, p)"
      ~creds:[ Ident.make "cert" 1; Ident.make "cert" 2; Ident.make "cert" 3 ]
      ~env_facts:[ "assigned(principal#7, 42)" ] ~trace_seq:9 ()
  in
  let log = Dlog.create ~service:(Ident.make "hospital" 1) in
  check_budget "Decision_log.append + export_line" ~budget:2700. (fun () ->
      Dlog.export_line (grant log ()));
  (* The append alone, as services make it: encoded once into the scratch
     buffer, hashed there and copied into the chunk store, whose 64 KiB
     chunks are allocated outside the minor heap. A hex line per append,
     as a text mirror of the chain would write, adds about 100 words. *)
  check_budget "Decision_log.append (into the chunk store)" ~budget:147. (grant log);
  (* What a decision costs to keep: its stored bytes (the payload, a
     4-byte length and a 32-byte hash), its offset in the index and its
     share of the part-filled last chunk, about 270 bytes for this grant.
     A typed record kept beside the bytes, or a hex copy of them, takes it
     well over the 450 allowed. *)
  let log = Dlog.create ~service:(Ident.make "hospital" 1) in
  let n = 10_000 in
  for _ = 1 to n do
    ignore (grant log ())
  done;
  let per_record = float (Obj.reachable_words (Obj.repr log) * (Sys.word_size / 8)) /. float n in
  if per_record > 450. then
    Alcotest.failf "a decision log keeps %.0f bytes per record (budget 450)" per_record

let suite =
  ( "regressions",
    [
      Alcotest.test_case "non-ground negation refused" `Quick test_nonground_negation_denied;
      Alcotest.test_case "heartbeat cancel releases timer" `Quick
        test_heartbeat_cancel_releases_timer;
      Alcotest.test_case "decommission releases cache watches" `Quick
        (test_teardown_releases_cache_watches (fun svc ->
             ignore (Service.decommission svc ~reason:"retired")));
      Alcotest.test_case "crash releases cache watches" `Quick
        (test_teardown_releases_cache_watches Service.crash);
      Alcotest.test_case "rule order preserved" `Quick test_rule_order_preserved;
      Alcotest.test_case "kernel allocation budgets" `Quick test_kernel_allocation_budgets;
      Alcotest.test_case "fact-change cost, indexed" `Quick test_fact_change_cost_indexed;
      Alcotest.test_case "shared tuple and negated watch" `Quick
        test_shared_tuple_and_negated_watch;
      Alcotest.test_case "tuple index keeps only holding roles" `Quick
        test_tuple_index_keeps_only_holding_roles;
      Alcotest.test_case "trust change re-checks subject" `Quick
        test_trust_change_rechecks_only_its_subject;
      Alcotest.test_case "trust re-checks keyed by subject" `Quick
        test_trust_recheck_keyed_by_subject;
      Alcotest.test_case "rpc handler error fails fast" `Quick test_rpc_handler_error_fails_fast;
      Alcotest.test_case "drop causes conserve messages" `Quick
        test_drop_causes_conserve_messages;
      Alcotest.test_case "broker in-flight unsubscribe accounted" `Quick
        test_broker_inflight_unsubscribe_accounted;
    ] )
