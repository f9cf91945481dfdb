(* Failure injection: validation callbacks over lossy links. *)

module World = Oasis_core.World
module Service = Oasis_core.Service
module Principal = Oasis_core.Principal
module Protocol = Oasis_core.Protocol
module Network = Oasis_sim.Network

let build ~retries ~loss ~seed =
  let world = World.create ~seed () in
  (* The suite measures validation-RPC retries over a lossy link, so the
     issuer signs with the epoch HMAC; an offline-verifiable issuer would
     bypass the link entirely. *)
  let issuer =
    Service.create world ~name:"issuer"
      ~config:{ Service.default_config with offline_sign = false }
      ~policy:"initial base <- env:eq(1, 1);" ()
  in
  let config = { Service.default_config with retry = Oasis_util.Backoff.fixed (retries + 1) } in
  let relying =
    Service.create world ~name:"relying" ~config ~policy:"derived <- base@issuer;" ()
  in
  (* Loss on the callback path only, both directions. *)
  Network.set_link (World.network world) (Service.id relying) (Service.id issuer) ~latency:0.001
    ~loss ();
  Network.set_link (World.network world) (Service.id issuer) (Service.id relying) ~latency:0.001
    ~loss ();
  (world, issuer, relying)

let attempt_once world issuer relying p =
  World.run_proc world (fun () ->
      let s = Principal.start_session p in
      (match Principal.activate p s issuer ~role:"base" () with
      | Ok _ -> ()
      | Error d -> Alcotest.failf "base denied: %s" (Protocol.denial_to_string d));
      match Principal.activate p s relying ~role:"derived" () with
      | Ok _ -> true
      | Error Protocol.No_proof -> false
      | Error d -> Alcotest.failf "unexpected: %s" (Protocol.denial_to_string d))

let success_rate ~retries ~loss =
  let successes = ref 0 in
  let n = 40 in
  for seed = 1 to n do
    let world, issuer, relying = build ~retries ~loss ~seed in
    let p = Principal.create world ~name:"p" in
    if attempt_once world issuer relying p then incr successes
  done;
  float_of_int !successes /. float_of_int n

let test_retries_mask_loss () =
  (* 30% per-leg loss: a single callback round trip succeeds with p=0.49;
     with 4 retries the activation should almost always succeed. *)
  let without = success_rate ~retries:0 ~loss:0.3 in
  let with_retries = success_rate ~retries:4 ~loss:0.3 in
  Alcotest.(check bool)
    (Printf.sprintf "retries help (%.2f -> %.2f)" without with_retries)
    true
    (with_retries > without && with_retries > 0.9)

let test_lossless_path_unaffected () =
  Alcotest.(check (float 1e-9)) "no loss, no failures" 1.0 (success_rate ~retries:0 ~loss:0.0)

let test_negative_verdict_not_retried () =
  (* A revoked credential is refused immediately even with many retries:
     only losses are retried, not verdicts. *)
  let world, issuer, relying = build ~retries:5 ~loss:0.0 ~seed:3 in
  let p = Principal.create world ~name:"p" in
  let base_rmc =
    World.run_proc world (fun () ->
        let s = Principal.start_session p in
        match Principal.activate p s issuer ~role:"base" () with
        | Ok rmc -> (s, rmc)
        | Error d -> Alcotest.failf "denied: %s" (Protocol.denial_to_string d))
  in
  let session, rmc = base_rmc in
  ignore (Service.revoke_certificate issuer rmc.Oasis_cert.Rmc.id ~reason:"gone");
  World.settle world;
  let before = (Service.stats relying).Service.callbacks_out in
  World.run_proc world (fun () ->
      match Principal.activate p session relying ~role:"derived" () with
      | Error Protocol.No_proof -> ()
      | _ -> Alcotest.fail "revoked base accepted");
  Alcotest.(check int) "exactly one callback" 1
    ((Service.stats relying).Service.callbacks_out - before)

let suite =
  ( "lossy",
    [
      Alcotest.test_case "retries mask loss" `Quick test_retries_mask_loss;
      Alcotest.test_case "lossless unaffected" `Quick test_lossless_path_unaffected;
      Alcotest.test_case "verdicts not retried" `Quick test_negative_verdict_not_retried;
    ] )
