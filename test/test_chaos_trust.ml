(* Trust-churn chaos (DESIGN.md §16), driving the shared Churn core:
   randomised interactions flap a score across a hysteresis-banded gate
   while the registrar crashes mid-issuance, partitions isolate the trust
   owner, and the gate crash/restarts through its durable decision-log
   chain. The real configuration must hold every invariant on every seed;
   a δ=0 gate must flap strictly more on the same schedules, and every
   tampered durable chain must be refused on restart. *)

module Churn = Oasis_script.Churn

(* CHAOS_QUICK=1 (make chaos-trust's sub-minute mode) trims seeds and
   steps but keeps every assertion. *)
let quick =
  match Sys.getenv_opt "CHAOS_QUICK" with Some ("1" | "true") -> true | _ -> false

let n_seeds = if quick then 12 else 48
let steps = if quick then 20 else 30

let config seed = { Churn.default_config with seed; steps }

let test_invariants_hold () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:n_seeds ~name:"trust churn keeps gate+chain+anti-entropy"
       QCheck.(int_range 1 100_000)
       (fun seed ->
         let s = Churn.run (config seed) in
         match s.Churn.violations with
         | [] -> true
         | v :: _ -> QCheck.Test.fail_reportf "seed %d: %s" seed v))

(* Hysteresis ablation: the same schedules with δ=0 must revoke at least
   as often on every seed, strictly more in aggregate — and the band must
   actually absorb flaps somewhere (vacuity guard). *)
let test_hysteresis_bounds_revocations () =
  let banded = ref 0 and flappy = ref 0 and suppressed = ref 0 in
  for seed = 1 to n_seeds do
    let with_band = Churn.run (config seed) in
    let without = Churn.run { (config seed) with Churn.band = 0.0 } in
    banded := !banded + with_band.Churn.cascade_deactivations;
    flappy := !flappy + without.Churn.cascade_deactivations;
    suppressed := !suppressed + with_band.Churn.flaps_suppressed
  done;
  Alcotest.(check bool)
    (Printf.sprintf "band suppressed some flaps (%d)" !suppressed)
    true (!suppressed > 0);
  Alcotest.(check bool)
    (Printf.sprintf "δ=0 revokes strictly more (%d banded vs %d flappy)" !banded !flappy)
    true
    (!flappy > !banded)

(* Tamper detection: corrupting the durable export between crash and
   restart must refuse the restart (fail-closed) on every tampered seed. *)
let test_tamper_detected_fail_closed () =
  let detected = ref 0 and tampered = ref 0 in
  for seed = 1 to n_seeds do
    let s = Churn.run { (config seed) with Churn.tamper = true } in
    (match s.Churn.violations with
    | [] -> ()
    | v :: _ -> Alcotest.failf "seed %d: %s" seed v);
    if s.Churn.tampered then begin
      incr tampered;
      if s.Churn.tamper_detected then incr detected
    end
  done;
  Alcotest.(check bool) "some seeds actually tampered" true (!tampered > 0);
  Alcotest.(check int)
    (Printf.sprintf "every tampered chain was refused (%d/%d)" !detected !tampered)
    !tampered !detected

let test_deterministic () =
  let seeds = if quick then [ 5; 23 ] else [ 5; 23; 77 ] in
  let summaries =
    List.map
      (fun seed ->
        let a = Churn.run (config seed) in
        let b = Churn.run (config seed) in
        Alcotest.(check bool) (Printf.sprintf "seed %d replays identically" seed) true (a = b);
        a)
      seeds
  in
  (* Vacuity guard: the schedules must issue certificates and exercise the
     mid-issuance crash path somewhere. *)
  Alcotest.(check bool) "churn issued certificates" true
    (List.exists (fun (s : Churn.summary) -> s.interactions > 0) summaries);
  Alcotest.(check bool) "churn crashed mid-issuance somewhere" true
    (List.exists (fun (s : Churn.summary) -> s.mid_crashes > 0) summaries)

let suite =
  ( "chaos-trust",
    [
      Alcotest.test_case "churn schedules keep invariants (qcheck)" `Slow test_invariants_hold;
      Alcotest.test_case "hysteresis bounds revocations vs δ=0" `Slow
        test_hysteresis_bounds_revocations;
      Alcotest.test_case "tampered chain refused fail-closed" `Slow test_tamper_detected_fail_closed;
      Alcotest.test_case "churn runs are deterministic" `Quick test_deterministic;
    ] )
