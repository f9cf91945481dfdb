(* Chaos: randomised fault schedules (partitions, crash/restart, revocation,
   probes) against the two safety properties of DESIGN.md §11:

     S1  no stale grant: once a supporting credential is revoked, the
         dependent role is deactivated within a propagation bound
         (heartbeat deadline + suspect grace + slack) of the revocation —
         or of the relying service's restart, if it was down — regardless
         of partitions, because fail-closed degradation needs no
         connectivity;
     S2  convergence: once every fault heals, all suspect roles resolve
         (reinstated or revoked) within the grace period.

   A vacuity guard checks that some schedule reaches the transition S1
   guards: a revoked credential whose invalidation cannot be delivered, so
   only fail-closed degradation deactivates the dependent role.

   The same schedules run under change events. Their feed has no period
   and the relying service no deadline, so nothing bounds staleness while
   the issuer is cut off from the relying service or crashed: there S1's
   bound runs from the last repair of that channel (a heal, or the issuer
   back up), when the issuer re-sends its latest beat, and it is checked
   only while the channel is whole. S2 is checked as under heartbeats.
   Their vacuity guard checks that some schedule revokes [base] while the
   channel is down, so only a re-sent beat can tell it. *)

module World = Oasis_core.World
module Service = Oasis_core.Service
module Principal = Oasis_core.Principal
module Protocol = Oasis_core.Protocol
module Fault = Oasis_sim.Fault
module Backoff = Oasis_util.Backoff
module Rng = Oasis_util.Rng
module Ident = Oasis_util.Ident
module Dlog = Oasis_trust.Decision_log

let period = 0.5
let deadline = 1.5
let grace = 2.0

(* Detection within [deadline] of the beats stopping, resolution within
   [grace] of detection; the slack covers reconciliation polls, notification
   latency and retry jitter. *)
let bound = deadline +. grace +. 1.0

let chaos_config =
  {
    Service.default_config with
    suspect_grace = grace;
    retry = { Backoff.default with base = 0.02; cap = 0.2; max_attempts = 4 };
  }

type chaos = {
  world : World.t;
  bounded : bool; (* a heartbeat deadline bounds staleness during faults *)
  issuer : Service.t;
  relying : Service.t;
  base_id : Ident.t;
  derived_id : Ident.t;
  mutable partitioned : bool;
  mutable revoked_at : float option;
  mutable relying_up_since : float;
  mutable connected_since : float; (* the issuer -> relying channel's last repair *)
  mutable probes : int;
  mutable degraded_after_revoke : bool;
  mutable revoked_behind_cut : bool;
}

let ok = function
  | Ok v -> v
  | Error d -> Alcotest.failf "chaos setup denied: %s" (Protocol.denial_to_string d)

let heartbeats = World.Heartbeats { period; deadline }

let build ?(monitoring = heartbeats) seed =
  let world = World.create ~seed ~monitoring () in
  let issuer = Service.create world ~name:"issuer" ~policy:"initial base <- env:eq(1, 1);" () in
  let relying =
    Service.create world ~name:"relying" ~config:chaos_config
      ~policy:"derived <- *base@issuer;" ()
  in
  let p = Principal.create world ~name:"p" in
  let base, derived =
    World.run_proc world (fun () ->
        let s = Principal.start_session p in
        let base = ok (Principal.activate p s issuer ~role:"base" ()) in
        let derived = ok (Principal.activate p s relying ~role:"derived" ()) in
        (base, derived))
  in
  {
    world;
    bounded = monitoring <> World.Change_events;
    issuer;
    relying;
    base_id = base.Oasis_cert.Rmc.id;
    derived_id = derived.Oasis_cert.Rmc.id;
    partitioned = false;
    revoked_at = None;
    relying_up_since = 0.0;
    connected_since = 0.0;
    probes = 0;
    degraded_after_revoke = false;
    revoked_behind_cut = false;
  }

let connected c = (not c.partitioned) && not (Service.is_crashed c.issuer)

(* S1, checkable at any instant the relying service is up (and, under
   change events, hears the issuer). *)
let stale_grant c =
  match c.revoked_at with
  | Some t_rev when (not (Service.is_crashed c.relying)) && (c.bounded || connected c) ->
      let stable_since = Float.max t_rev c.relying_up_since in
      let stable_since =
        if c.bounded then stable_since else Float.max stable_since c.connected_since
      in
      World.now c.world -. stable_since > bound
      && Service.is_valid_certificate c.relying c.derived_id
  | _ -> false

(* Whether fail-closed degradation deactivated [derived] after [base] was
   revoked, read from the relying service's decision log. Polled after every
   step: a restart keeps only the verified bytes of the pre-crash chain, not
   its typed records. *)
let note_degradation c =
  match c.revoked_at with
  | None -> ()
  | Some t_rev ->
      if
        List.exists
          (fun (r : Dlog.record) ->
            r.decision = Dlog.Revoke && r.at >= t_rev
            && List.exists (Ident.equal c.derived_id) r.creds
            && String.starts_with ~prefix:"fail-closed degradation" r.rule)
          (Dlog.records (Service.decision_log c.relying))
      then c.degraded_after_revoke <- true

let probe c rng =
  let q = Principal.create c.world ~name:(Printf.sprintf "probe%d" c.probes) in
  c.probes <- c.probes + 1;
  ignore rng;
  World.run_proc c.world (fun () ->
      let s = Principal.start_session q in
      (match Principal.activate q s c.issuer ~role:"base" () with
      | Ok _ | Error _ -> ());
      match Principal.activate q s c.relying ~role:"derived" () with
      | Ok _ | Error _ -> ())

let step c rng =
  World.run_until c.world (World.now c.world +. (0.3 +. Rng.float rng 0.7));
  match Rng.int rng 12 with
  | 0 | 1 ->
      if not c.partitioned then begin
        Fault.partition (World.fault c.world) ~name:"wan"
          [ Service.id c.relying ]
          [ Service.id c.issuer ];
        c.partitioned <- true
      end
  | 2 | 3 ->
      if c.partitioned then begin
        Fault.heal (World.fault c.world) "wan";
        c.partitioned <- false;
        if connected c then c.connected_since <- World.now c.world
      end
  | 4 ->
      if not (Service.is_crashed c.relying) then Service.crash c.relying
      else begin
        Service.restart c.relying;
        c.relying_up_since <- World.now c.world
      end
  | 5 ->
      if not (Service.is_crashed c.issuer) then Service.crash c.issuer
      else begin
        Service.restart c.issuer;
        if connected c then c.connected_since <- World.now c.world
      end
  | 6 | 7 ->
      if c.revoked_at = None then begin
        c.revoked_behind_cut <- not (connected c);
        ignore (Service.revoke_certificate c.issuer c.base_id ~reason:"chaos revoke");
        c.revoked_at <- Some (World.now c.world)
      end
  | 8 | 9 -> probe c rng
  | _ -> ()

let finish c =
  (* Heal everything, then give reconciliation one bound to converge. *)
  Fault.heal_all (World.fault c.world);
  c.partitioned <- false;
  if Service.is_crashed c.issuer then Service.restart c.issuer;
  c.connected_since <- World.now c.world;
  if Service.is_crashed c.relying then begin
    Service.restart c.relying;
    c.relying_up_since <- World.now c.world
  end;
  World.run_until c.world (World.now c.world +. bound +. 1.0)

(* Runs one seed; returns the final state and the violation (if any)
   instead of asserting, so the vacuity guards can count across seeds. *)
let run_schedule ?monitoring seed =
  let c = build ?monitoring seed in
  let rng = Rng.create ((seed * 2654435761) lxor 0x9e3779b9) in
  let steps = 25 + Rng.int rng 15 in
  let violation = ref None in
  for _ = 1 to steps do
    if !violation = None then begin
      step c rng;
      note_degradation c;
      if stale_grant c then
        violation :=
          Some
            (Printf.sprintf "S1: stale grant at t=%.2f (revoked at %.2f)" (World.now c.world)
               (Option.get c.revoked_at))
    end
  done;
  (match !violation with
  | Some _ -> ()
  | None ->
      finish c;
      note_degradation c;
      if stale_grant c then violation := Some "S1: stale grant after final heal";
      if Service.suspect_roles c.relying <> [] || Service.suspect_roles c.issuer <> [] then
        violation := Some "S2: unresolved suspects after heal + grace");
  (c, !violation)

let n_seeds = 60

let keep_safety ?monitoring name () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:n_seeds ~name
       QCheck.(int_range 1 100_000)
       (fun seed ->
         match snd (run_schedule ?monitoring seed) with
         | None -> true
         | Some v -> QCheck.Test.fail_reportf "seed %d: %s" seed v))

let test_chaos_fail_closed = keep_safety "chaos schedules keep S1+S2"

let test_change_events_keep_safety =
  keep_safety ~monitoring:World.Change_events "change-event schedules keep S1+S2"

let test_change_events_revoke_behind_cut () =
  (* Vacuity guard: the re-sent beat is only tested if some schedule
     revokes [base] where its beat cannot reach the relying service. *)
  let hits =
    List.init n_seeds (fun i -> i + 1)
    |> List.filter (fun seed ->
           (fst (run_schedule ~monitoring:World.Change_events seed)).revoked_behind_cut)
    |> List.length
  in
  Alcotest.(check bool)
    (Printf.sprintf "base revoked while the issuer is cut off or down (%d/%d seeds)" hits n_seeds)
    true (hits > 0)

let test_chaos_degradation_exercised () =
  (* Vacuity guard: S1 is only worth checking if some schedule revokes
     [base] where the invalidation cannot reach the relying service, so
     that fail-closed degradation is what deactivates [derived]. *)
  let hits =
    List.init n_seeds (fun i -> i + 1)
    |> List.filter (fun seed -> (fst (run_schedule seed)).degraded_after_revoke)
    |> List.length
  in
  Alcotest.(check bool)
    (Printf.sprintf "degradation deactivates a revoked dependency (%d/%d seeds)" hits n_seeds)
    true (hits > 0)

let test_chaos_deterministic () =
  let trace seed =
    let c = build seed in
    let rng = Rng.create ((seed * 2654435761) lxor 0x9e3779b9) in
    for _ = 1 to 20 do
      step c rng
    done;
    finish c;
    let st = Service.stats c.relying in
    Printf.sprintf "t=%.4f sus=%d rein=%d rev=%d probes=%d" (World.now c.world)
      st.Service.suspects st.Service.reconciled_reinstated st.Service.reconciled_revoked
      c.probes
  in
  let traces =
    List.map
      (fun seed ->
        let a = trace seed in
        Alcotest.(check string) (Printf.sprintf "seed %d replays identically" seed) a (trace seed);
        a)
      [ 5; 23; 77 ]
  in
  (* Vacuity guard: the schedules must actually exercise the machinery. *)
  Alcotest.(check bool)
    (Printf.sprintf "chaos produced suspects (%s)" (String.concat " | " traces))
    true
    (List.exists
       (fun t ->
         let contains sub =
           let n = String.length sub and m = String.length t in
           let rec go i = i + n <= m && (String.sub t i n = sub || go (i + 1)) in
           go 0
         in
         not (contains "sus=0"))
       traces)

let suite =
  ( "chaos",
    [
      Alcotest.test_case "fault schedules keep safety (qcheck)" `Slow test_chaos_fail_closed;
      Alcotest.test_case "fail-closed degradation is exercised" `Slow
        test_chaos_degradation_exercised;
      Alcotest.test_case "chaos runs are deterministic" `Quick test_chaos_deterministic;
      Alcotest.test_case "change-event schedules keep safety (qcheck)" `Slow
        test_change_events_keep_safety;
      Alcotest.test_case "change-event schedules revoke behind a cut" `Slow
        test_change_events_revoke_behind_cut;
    ] )
