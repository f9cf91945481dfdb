(* Audit certificates, registrars, histories and risk assessment (Sect. 6). *)

module Audit = Oasis_trust.Audit
module Registrar = Oasis_trust.Registrar
module History = Oasis_trust.History
module Assess = Oasis_trust.Assess
module Simulation = Oasis_trust.Simulation
module Dlog = Oasis_trust.Decision_log
module Ident = Oasis_util.Ident
module Value = Oasis_util.Value
module Rng = Oasis_util.Rng

let client = Ident.make "client" 1
let server = Ident.make "server" 1

let registrar () = Registrar.create (Rng.create 3) ~name:"main" ()
let rogue () = Registrar.create (Rng.create 4) ~name:"rogue" ~honest:false ()

let record ?(at = 1.0) ?(client_outcome = Audit.Fulfilled) ?(server_outcome = Audit.Fulfilled) reg =
  Registrar.record_interaction reg ~client ~server ~at ~client_outcome ~server_outcome

(* ---------------- Audit certificates ---------------- *)

let test_audit_validate () =
  let reg = registrar () in
  let cert = record reg in
  Alcotest.(check bool) "validates" true (Registrar.validate reg cert);
  Alcotest.(check int) "validation counted" 1 (Registrar.validations reg);
  Alcotest.(check int) "issued counted" 1 (Registrar.issued_count reg)

let test_audit_tamper () =
  let reg = registrar () in
  let cert = record reg ~server_outcome:Audit.Breached in
  (* The server would love to flip its outcome. *)
  let laundered = Audit.with_server_outcome cert Audit.Fulfilled in
  Alcotest.(check bool) "tampered rejected" false (Registrar.validate reg laundered)

let test_audit_wrong_registrar () =
  let reg = registrar () in
  let other = Registrar.create (Rng.create 9) ~name:"other" () in
  let cert = record reg in
  Alcotest.(check bool) "unknown issuer rejected" false (Registrar.validate other cert)

let test_audit_outcome_for () =
  let reg = registrar () in
  let cert = record reg ~client_outcome:Audit.Breached ~server_outcome:Audit.Fulfilled in
  Alcotest.(check bool) "client side" true (Audit.outcome_for cert client = Some Audit.Breached);
  Alcotest.(check bool) "server side" true (Audit.outcome_for cert server = Some Audit.Fulfilled);
  Alcotest.(check bool) "stranger" true (Audit.outcome_for cert (Ident.make "x" 9) = None);
  Alcotest.(check bool) "involves" true (Audit.involves cert client && Audit.involves cert server)

let test_rogue_fabricate_and_repudiate () =
  let reg = registrar () in
  Alcotest.(check bool) "honest cannot fabricate" true
    (match Registrar.fabricate reg ~client ~server ~at:1.0 with
    | _ -> false
    | exception Invalid_argument _ -> true);
  let r = rogue () in
  let fake = Registrar.fabricate r ~client ~server ~at:1.0 in
  Alcotest.(check bool) "fabrication validates at rogue" true (Registrar.validate r fake);
  let genuine = record r in
  Registrar.repudiate r genuine.Audit.id;
  Alcotest.(check bool) "repudiated no longer validates" false (Registrar.validate r genuine)

(* ---------------- Histories ---------------- *)

let test_history () =
  let reg = registrar () in
  let h = History.create server in
  Alcotest.(check bool) "filed" true (History.add h (record reg));
  let dup = record reg ~server_outcome:Audit.Breached in
  Alcotest.(check bool) "filed" true (History.add h dup);
  Alcotest.(check bool) "re-filing is a no-op" false (History.add h dup);
  (* A certificate not involving the owner is ignored. *)
  Alcotest.(check bool) "not involving owner ignored" false
    (History.add h
       (Registrar.record_interaction reg ~client ~server:(Ident.make "other" 1) ~at:2.0
          ~client_outcome:Audit.Fulfilled ~server_outcome:Audit.Fulfilled));
  Alcotest.(check int) "size" 2 (History.size h);
  Alcotest.(check int) "favourable filters breaches" 1
    (List.length (History.present_favourable h))

(* ---------------- Assessment ---------------- *)

let test_assess_no_evidence () =
  let a = Assess.create () in
  let verdict = Assess.assess a ~validate:(fun _ -> true) ~subject:server ~presented:[] in
  Alcotest.(check (float 1e-9)) "prior" 0.5 verdict.Assess.score;
  Alcotest.(check bool) "threshold 0.5 proceeds on prior" true verdict.Assess.proceed

let test_assess_scores () =
  let reg = registrar () in
  let a = Assess.create ~threshold:0.6 () in
  let good = List.init 8 (fun _ -> record reg) in
  let verdict =
    Assess.assess a ~validate:(Registrar.validate reg) ~subject:server ~presented:good
  in
  Alcotest.(check bool) "good history scores high" true (verdict.Assess.score > 0.8);
  Alcotest.(check bool) "proceeds" true verdict.Assess.proceed;
  let bad = List.init 8 (fun _ -> record reg ~server_outcome:Audit.Breached) in
  let verdict2 =
    Assess.assess a ~validate:(Registrar.validate reg) ~subject:server ~presented:bad
  in
  Alcotest.(check bool) "bad history scores low" true (verdict2.Assess.score < 0.2);
  Alcotest.(check bool) "refuses" false verdict2.Assess.proceed

let test_assess_rejects_invalid () =
  let reg = registrar () in
  let a = Assess.create () in
  let cert = record reg in
  let forged = Audit.with_server_outcome (record reg ~server_outcome:Audit.Breached) Audit.Fulfilled in
  let verdict =
    Assess.assess a ~validate:(Registrar.validate reg) ~subject:server
      ~presented:[ cert; forged ]
  in
  Alcotest.(check int) "forged rejected" 1 verdict.Assess.rejected;
  Alcotest.(check int) "one piece of evidence" 1 (List.length verdict.Assess.evidence)

let test_feedback_discounts_vouchers () =
  let r = rogue () in
  (* Threshold above the 0.5 prior: discounted testimony converges to the
     prior, so heavily-discounted fakes stop clearing the bar. *)
  let a = Assess.create ~threshold:0.6 () in
  let fakes = List.init 6 (fun _ -> Registrar.fabricate r ~client ~server ~at:1.0) in
  let verdict = Assess.assess a ~validate:(Registrar.validate r) ~subject:server ~presented:fakes in
  Alcotest.(check bool) "initially fooled" true verdict.Assess.proceed;
  (* The server breaches; the rogue registrar's weight collapses. *)
  Assess.feedback a verdict ~actual:Audit.Breached;
  Alcotest.(check bool) "weight halved" true (Assess.registrar_weight a (Registrar.id r) <= 0.5);
  (* Iterate: the same fakes soon stop clearing the threshold. *)
  let rec hammer n =
    if n = 0 then ()
    else begin
      let v = Assess.assess a ~validate:(Registrar.validate r) ~subject:server ~presented:fakes in
      if v.Assess.proceed then begin
        Assess.feedback a v ~actual:Audit.Breached;
        hammer (n - 1)
      end
    end
  in
  hammer 20;
  let final = Assess.assess a ~validate:(Registrar.validate r) ~subject:server ~presented:fakes in
  Alcotest.(check bool) "eventually refuses" false final.Assess.proceed

let test_feedback_disabled () =
  let r = rogue () in
  let a = Assess.create ~discounting:false () in
  let fakes = List.init 6 (fun _ -> Registrar.fabricate r ~client ~server ~at:1.0) in
  let verdict = Assess.assess a ~validate:(Registrar.validate r) ~subject:server ~presented:fakes in
  Assess.feedback a verdict ~actual:Audit.Breached;
  Alcotest.(check (float 1e-9)) "weight unchanged" 1.0 (Assess.registrar_weight a (Registrar.id r))

let test_assess_invalid_threshold () =
  Alcotest.(check bool) "raises" true
    (match Assess.create ~threshold:1.5 () with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ---------------- Population simulation ---------------- *)

let test_simulation_deterministic () =
  let params = { Simulation.default_params with rounds = 10; servers = 20; clients = 20 } in
  let r1 = Simulation.run params and r2 = Simulation.run params in
  Alcotest.(check (float 1e-12)) "same final accuracy" r1.Simulation.final_accuracy
    r2.Simulation.final_accuracy;
  Alcotest.(check int) "rounds recorded" 10 (List.length r1.Simulation.per_round)

let test_simulation_honest_population () =
  let params =
    { Simulation.default_params with byzantine_fraction = 0.0; rounds = 10 }
  in
  let r = Simulation.run params in
  Alcotest.(check bool)
    (Printf.sprintf "all accepts correct (%.2f)" r.Simulation.final_accuracy)
    true (r.Simulation.final_accuracy > 0.95)

let test_simulation_detects_byzantine () =
  let params =
    { Simulation.default_params with byzantine_fraction = 0.3; rounds = 40 }
  in
  let r = Simulation.run params in
  let first = List.hd r.Simulation.per_round in
  Alcotest.(check bool)
    (Printf.sprintf "accuracy improves (%.2f -> %.2f)" first.Simulation.accuracy
       r.Simulation.final_accuracy)
    true
    (r.Simulation.final_accuracy > 0.8 && r.Simulation.final_accuracy > first.Simulation.accuracy)

let test_simulation_collusion_needs_discounting () =
  let base =
    {
      Simulation.default_params with
      byzantine_fraction = 0.0;
      colluder_fraction = 0.25;
      colluder_padding = 3;
      rounds = 40;
    }
  in
  let with_disc = Simulation.run { base with discounting = true } in
  let without = Simulation.run { base with discounting = false } in
  Alcotest.(check bool)
    (Printf.sprintf "discounting beats none (%.2f vs %.2f)" with_disc.Simulation.final_accuracy
       without.Simulation.final_accuracy)
    true
    (with_disc.Simulation.final_accuracy > without.Simulation.final_accuracy);
  (* And the rogue registrar's reputation visibly collapses. *)
  let last = List.nth with_disc.Simulation.per_round 39 in
  Alcotest.(check bool)
    (Printf.sprintf "rogue weight fell (%.3f)" last.Simulation.mean_rogue_weight)
    true (last.Simulation.mean_rogue_weight < 0.5)

let test_simulation_validates_params () =
  Alcotest.(check bool) "small population raises" true
    (match Simulation.run { Simulation.default_params with servers = 1 } with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "fractions over 1 raise" true
    (match
       Simulation.run
         { Simulation.default_params with byzantine_fraction = 0.8; colluder_fraction = 0.8 }
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ---------------- deduplication (wallets and assessment) ---------------- *)

(* Re-presenting one favourable certificate ten times must not count it ten
   times — neither in the wallet nor in the assessment. *)
let test_dedup_tenfold () =
  let reg = registrar () in
  let cert = record reg in
  let wallet = History.create client in
  for _ = 1 to 10 do
    ignore (History.add wallet cert : bool)
  done;
  Alcotest.(check int) "wallet keeps one" 1 (History.size wallet);
  let assessor = Assess.create () in
  let validate = Registrar.validate reg in
  let once = Assess.assess assessor ~validate ~subject:client ~presented:[ cert ] in
  let padded =
    Assess.assess assessor ~validate ~subject:client
      ~presented:(List.init 10 (fun _ -> cert))
  in
  Alcotest.(check int) "one piece of evidence" 1 (List.length padded.Assess.evidence);
  Alcotest.(check int) "nine duplicates rejected" 9 padded.Assess.rejected_duplicate;
  Alcotest.(check (float 1e-9)) "score as if presented once" once.Assess.score padded.Assess.score

let test_rejection_causes_split () =
  let reg = registrar () in
  let about_me = record reg in
  let stranger_cert =
    Registrar.record_interaction reg ~client:(Ident.make "x" 7) ~server ~at:2.0
      ~client_outcome:Audit.Fulfilled ~server_outcome:Audit.Fulfilled
  in
  let forged = Audit.with_server_outcome (record reg ~at:3.0) Audit.Breached in
  let v =
    Assess.assess (Assess.create ()) ~validate:(Registrar.validate reg) ~subject:client
      ~presented:[ about_me; about_me; stranger_cert; forged ]
  in
  Alcotest.(check int) "duplicate" 1 v.Assess.rejected_duplicate;
  Alcotest.(check int) "not about subject" 1 v.Assess.rejected_not_about_subject;
  Alcotest.(check int) "validation failed" 1 v.Assess.rejected_validation_failed;
  Alcotest.(check int) "total is the sum" 3 v.Assess.rejected

(* ---------------- decision log ---------------- *)

let sample_log n =
  let log = Dlog.create ~service:(Ident.make "svc" 1) in
  for i = 0 to n - 1 do
    ignore
      (Dlog.append log ~at:(float_of_int i)
         ~decision:(if i mod 3 = 0 then Dlog.Deny else Dlog.Grant)
         ~principal:client
         ~action:(Printf.sprintf "invoke:op%d" i)
         ~args:[ Value.Int i; Value.Str "x" ]
         ~rule:"priv op(u) <- r(u) ;"
         ~creds:[ Ident.make "cert" i ]
         ~env_facts:[ "f(u)" ] ())
  done;
  log

(* A fixed three-record chain, exported and hashed before the hex codec
   and SHA-256 were rewritten: the export must stay byte-identical. *)
let test_decision_log_export_golden () =
  let log = Dlog.create ~service:(Ident.make "hospital" 1) in
  let p = Ident.make "principal" 7 in
  ignore
    (Dlog.append log ~at:12.5 ~decision:Dlog.Grant ~principal:p ~action:"treating_doctor"
       ~args:[ Value.Id p; Value.Int 42 ]
       ~rule:"treating_doctor(d, p) <- doctor(d), env:assigned(d, p)"
       ~creds:[ Ident.make "cert" 1; Ident.make "cert" 2 ]
       ~env_facts:[ "assigned(principal#7, 42)" ] ~trace_seq:3 ());
  ignore (Dlog.append log ~at:13.0 ~decision:Dlog.Deny ~principal:p ~action:"read_record" ());
  ignore
    (Dlog.append log ~at:20.25 ~decision:Dlog.Revoke ~principal:p ~action:"treating_doctor"
       ~args:[ Value.Id p; Value.Int 42 ] ~rule:"env assigned(principal#7, 42) retracted" ());
  let exported = Dlog.export log in
  Alcotest.(check int) "export length" 1093 (String.length exported);
  Alcotest.(check string) "export digest"
    "e2edfbc251457c2ffe60a8c3ec43ab74f9e5625e215a2c2eaeb1877cc8238336"
    Oasis_crypto.Sha256.(to_hex (digest_string exported));
  Alcotest.(check string) "head"
    "36c1ae7f5edea6a66e982b9ea3d8c883a408c229d32e70ce0a0cd38697dc42aa"
    (Oasis_crypto.Sha256.to_hex (Dlog.head log));
  Alcotest.(check (result int (pair int string))) "re-verifies" (Ok 3) (Dlog.verify_string exported)

let test_decision_log_roundtrip () =
  let log = sample_log 20 in
  Alcotest.(check bool) "verifies" true (Dlog.verify log = Ok 20);
  let exported = Dlog.export log in
  Alcotest.(check bool) "export verifies" true (Dlog.verify_string exported = Ok 20);
  (match Dlog.find log ~seq:7 with
  | Some r ->
      Alcotest.(check string) "action survives" "invoke:op7" r.Dlog.action;
      Alcotest.(check string) "rule survives" "priv op(u) <- r(u) ;" r.Dlog.rule
  | None -> Alcotest.fail "seq 7 missing");
  Alcotest.(check bool) "empty log verifies" true
    (Dlog.verify (Dlog.create ~service:(Ident.make "svc" 2)) = Ok 0)

(* ---------------- time-decayed assessment (DESIGN.md §16) ---------------- *)

let test_decay_moves_to_prior () =
  let reg = registrar () in
  let a = Assess.create ~decay_rate:0.1 () in
  let history = List.init 6 (fun i -> record reg ~at:(float_of_int i)) in
  let score now =
    (Assess.assess_at a ~now ~validate:(Registrar.validate reg) ~subject:client
       ~presented:history)
      .Assess.score
  in
  let fresh = score 6.0 and aged = score 60.0 and ancient = score 600.0 in
  Alcotest.(check bool) "fresh history scores high" true (fresh > 0.7);
  Alcotest.(check bool) "aged history decays toward the prior" true (aged < fresh && aged > 0.5);
  Alcotest.(check (float 1e-6)) "ancient history is the prior" 0.5 ancient;
  (* decay_rate 0 restores the timeless behaviour *)
  let b = Assess.create () in
  let score_b now =
    (Assess.assess_at b ~now ~validate:(Registrar.validate reg) ~subject:client
       ~presented:history)
      .Assess.score
  in
  Alcotest.(check (float 1e-9)) "no decay: age is irrelevant" (score_b 6.0) (score_b 600.0)

(* The running per-subject aggregate must agree with a full recompute of
   the wallet, through observes and decay advances alike. *)
let test_cached_matches_full () =
  let reg = registrar () in
  let a = Assess.create ~decay_rate:0.05 () in
  let validate = Registrar.validate reg in
  let wallet = History.create client in
  List.iter
    (fun c -> ignore (History.add wallet c : bool))
    (List.init 10 (fun i ->
         record reg ~at:(float_of_int i)
           ~client_outcome:(if i mod 3 = 0 then Audit.Breached else Audit.Fulfilled)));
  let full =
    Assess.assess_at ~remember:true a ~now:10.0 ~validate ~subject:client
      ~presented:(History.present wallet)
  in
  (match Assess.cached_score a ~subject:client ~now:10.0 with
  | Some s -> Alcotest.(check (float 1e-9)) "cached = full at seed time" full.Assess.score s
  | None -> Alcotest.fail "no cached score after remember");
  let c2 = record reg ~at:12.0 in
  ignore (History.add wallet c2 : bool);
  Assess.observe a ~subject:client ~now:12.0 c2;
  let cached =
    match Assess.cached_score a ~subject:client ~now:25.0 with
    | Some s -> s
    | None -> Alcotest.fail "cache lost after observe"
  in
  let full2 =
    Assess.assess_at a ~now:25.0 ~validate ~subject:client ~presented:(History.present wallet)
  in
  Alcotest.(check (float 1e-9)) "cached tracks the full recompute" full2.Assess.score cached

(* ---------------- durable chain resume ---------------- *)

(* The chunk store reads back what was appended, wherever the pieces and
   the ranges read fall against the 64 KiB chunk boundaries. *)
let test_chunks_are_one_string () =
  let module Chunks = Oasis_util.Chunks in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:40 ~name:"chunk store = the concatenated pieces"
       QCheck.(
         pair
           (list_of_size Gen.(int_range 1 6) (int_bound 40_000))
           (pair (int_bound 1_000_000) (int_bound 1_000_000)))
       (fun (sizes, (a, b)) ->
         let t = Chunks.create () and reference = Buffer.create 1024 in
         List.iteri
           (fun i size ->
             let piece = Bytes.init (size + 2) (fun j -> Char.chr (((i * 31) + j) land 255)) in
             Chunks.add_sub t piece 1 size;
             Buffer.add_subbytes reference piece 1 size)
           sizes;
         let all = Buffer.contents reference in
         let n = String.length all in
         let pos = if n = 0 then 0 else a mod n in
         let len = if n = 0 then 0 else b mod (n - pos + 1) in
         Chunks.length t = n
         && Chunks.sub_string t 0 n = all
         && Chunks.sub_string t pos len = String.sub all pos len
         && (n = 0 || Chunks.get t pos = all.[pos])
         && Chunks.sub_string (Chunks.of_string all) 0 n = all))

(* A log that crashed leaves only its store; [resume] rebuilds the log
   from it, typed records included. *)
let test_resume_chain () =
  let owner = Ident.make "svc" 1 in
  let log = sample_log 1000 in
  let store = Dlog.store log in
  Alcotest.(check bool) "the chain spans chunks" true
    (Oasis_util.Chunks.length store > Oasis_util.Chunks.chunk_size);
  (match Dlog.resume ~service:owner store with
  | Error (seq, why) -> Alcotest.failf "resume failed at %d: %s" seq why
  | Ok resumed ->
      Alcotest.(check int) "length preserved" 1000 (Dlog.length resumed);
      Alcotest.(check bool) "resumed records equal the pre-crash records, rule and creds included"
        true
        (Dlog.records resumed = Dlog.records log);
      Alcotest.(check bool) "find decodes a pre-crash record" true
        (Dlog.find resumed ~seq:327 = Dlog.find log ~seq:327 && Dlog.find resumed ~seq:327 <> None);
      Alcotest.(check bool) "heads agree" true (Dlog.head resumed = Dlog.head log);
      Alcotest.(check bool) "resumed chain verifies" true (Dlog.verify resumed = Ok 1000);
      Alcotest.(check string) "resumed export = pre-crash export" (Dlog.export log)
        (Dlog.export resumed);
      (* Appends continue from the verified head, into the same store. *)
      let r =
        Dlog.append resumed ~at:13.0 ~decision:Dlog.Grant ~principal:client
          ~action:"invoke:post-crash" ~args:[] ~rule:"r" ~creds:[] ~env_facts:[] ()
      in
      Alcotest.(check bool) "extended chain verifies" true (Dlog.verify resumed = Ok 1001);
      Alcotest.(check bool) "export verifies" true
        (Dlog.verify_string (Dlog.export resumed) = Ok 1001);
      Alcotest.(check bool) "second resume sees 1001" true
        (match Dlog.resume ~service:owner store with
        | Ok again ->
            Dlog.length again = 1001
            && Dlog.head again = Dlog.head resumed
            && Dlog.find again ~seq:1000 = Some r
        | Error _ -> false));
  (* Fail closed: a chain written by some other service must not resume. *)
  Alcotest.(check bool) "wrong owner refused" true
    (Result.is_error (Dlog.resume ~service:(Ident.make "svc" 2) store))

(* Facts are one joined field; a [;] or [\] inside a fact, or an empty
   fact, must neither merge two logged fact lists into one hashed payload
   nor come back different from what was logged. *)
let test_env_facts_roundtrip () =
  let chain facts =
    let log = Dlog.create ~service:(Ident.make "svc" 1) in
    ignore
      (Dlog.append log ~at:0.0 ~decision:Dlog.Grant ~principal:client ~action:"a"
         ~env_facts:facts ());
    log
  in
  let head facts = Dlog.head (chain facts) in
  Alcotest.(check bool) "a ; inside a fact is not a separator" false
    (head [ "ward(a;b)" ] = head [ "ward(a"; "b)" ]);
  Alcotest.(check bool) "an empty fact is not an empty list" false (head [ "" ] = head []);
  (* Any bytes, and short strings over the bytes the escaping is about,
     empty ones included. *)
  let fact =
    QCheck.Gen.(
      oneof
        [
          string_size (int_bound 8);
          string_size ~gen:(oneofl [ 'a'; ';'; '\\'; 'e' ]) (int_bound 6);
        ])
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:300 ~name:"decode . encode = id over arbitrary facts"
       QCheck.(list_of_size Gen.(int_bound 4) (list_of_size Gen.(int_bound 4) (make fact)))
       (fun fact_lists ->
         let log = Dlog.create ~service:(Ident.make "svc" 1) in
         let appended =
           List.mapi
             (fun i facts ->
               Dlog.append log ~at:(float_of_int i) ~decision:Dlog.Revoke ~principal:client
                 ~action:"a" ~env_facts:facts ())
             fact_lists
         in
         Dlog.records log = appended
         && List.for_all (fun (r : Dlog.record) -> Dlog.find log ~seq:r.seq = Some r) appended
         && Dlog.verify_string (Dlog.export log) = Ok (List.length appended)))

(* ---------------- qcheck properties ---------------- *)

(* Aging the same evidence can only move a score toward the 0.5 prior —
   never past it, never away from it, never out of [0, 1]. *)
let test_prop_decay_monotone () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:200 ~name:"decay shrinks |score - prior| monotonically"
       QCheck.(
         pair
           (pair (int_range 0 15) (int_range 0 15))
           (pair (int_range 0 100) (pair (int_range 0 200) (int_range 1 100))))
       (fun ((fulfilled, breached), (d1, (d2, r))) ->
         let reg = registrar () in
         let rate = 0.002 *. float_of_int r in
         let a = Assess.create ~decay_rate:rate () in
         let certs outcome n base =
           List.init n (fun i -> record reg ~at:(base +. float_of_int i) ~client_outcome:outcome)
         in
         let history = certs Audit.Fulfilled fulfilled 0.0 @ certs Audit.Breached breached 5.0 in
         let now1 = 20.0 +. float_of_int d1 in
         let now2 = now1 +. float_of_int d2 in
         let score now =
           (Assess.assess_at a ~now ~validate:(Registrar.validate reg) ~subject:client
              ~presented:history)
             .Assess.score
         in
         let s1 = score now1 and s2 = score now2 in
         let bounded s = s >= 0.0 && s <= 1.0 in
         bounded s1 && bounded s2
         && Float.abs (s2 -. 0.5) <= Float.abs (s1 -. 0.5) +. 1e-12
         && (s1 -. 0.5) *. (s2 -. 0.5) >= -1e-12))

(* One more fulfilled interaction never lowers the subject's score. *)
let test_prop_score_monotone () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:100 ~name:"extra fulfilment never lowers the score"
       QCheck.(pair (int_range 0 20) (int_range 0 20))
       (fun (fulfilled, breached) ->
         let reg = registrar () in
         let certs outcome n base =
           List.init n (fun i ->
               record reg ~at:(base +. float_of_int i) ~client_outcome:outcome)
         in
         let history =
           certs Audit.Fulfilled fulfilled 0.0 @ certs Audit.Breached breached 100.0
         in
         let score presented =
           (Assess.assess (Assess.create ()) ~validate:(Registrar.validate reg)
              ~subject:client ~presented)
             .Assess.score
         in
         let base = score history in
         let more = score (record reg ~at:200.0 :: history) in
         more >= base -. 1e-12))

(* Presenting a history twice over changes nothing: dedup is idempotent. *)
let test_prop_dedup_idempotent () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:100 ~name:"assessment ignores re-presented certificates"
       QCheck.(list_of_size (Gen.int_range 0 15) bool)
       (fun outcomes ->
         let reg = registrar () in
         let history =
           List.mapi
             (fun i good ->
               record reg ~at:(float_of_int i)
                 ~client_outcome:(if good then Audit.Fulfilled else Audit.Breached))
             outcomes
         in
         let verdict presented =
           Assess.assess (Assess.create ()) ~validate:(Registrar.validate reg)
             ~subject:client ~presented
         in
         let once = verdict history and twice = verdict (history @ history) in
         Float.abs (once.Assess.score -. twice.Assess.score) < 1e-12
         && List.length once.Assess.evidence = List.length twice.Assess.evidence
         && twice.Assess.rejected_duplicate = List.length history))

(* Whatever feedback arrives, a registrar's credibility stays clamped. *)
let test_prop_weight_clamped () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:100 ~name:"registrar weight stays within [0.01, 1.0]"
       QCheck.(list_of_size (Gen.int_range 0 40) bool)
       (fun actuals ->
         let reg = registrar () in
         let assessor = Assess.create () in
         let history = [ record reg; record reg ~at:2.0 ] in
         List.for_all
           (fun breached ->
             let v =
               Assess.assess assessor ~validate:(Registrar.validate reg) ~subject:client
                 ~presented:history
             in
             Assess.feedback assessor v
               ~actual:(if breached then Audit.Breached else Audit.Fulfilled);
             let w = Assess.registrar_weight assessor (Registrar.id reg) in
             w >= 0.01 -. 1e-12 && w <= 1.0 +. 1e-12)
           actuals))

(* Flip any one byte of an exported chain and verification must fail. *)
let test_prop_chain_tamper_detected () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:100 ~name:"one flipped byte breaks chain verification"
       QCheck.(pair (int_range 1 12) (int_range 0 1_000_000))
       (fun (n, byte) ->
         let exported = Dlog.export (sample_log n) in
         Dlog.verify_string exported = Ok n
         && Result.is_error (Dlog.verify_string (Dlog.tamper exported ~byte))))

let suite =
  ( "trust",
    [
      Alcotest.test_case "audit validate" `Quick test_audit_validate;
      Alcotest.test_case "audit tamper" `Quick test_audit_tamper;
      Alcotest.test_case "audit wrong registrar" `Quick test_audit_wrong_registrar;
      Alcotest.test_case "audit outcome_for" `Quick test_audit_outcome_for;
      Alcotest.test_case "rogue fabricate/repudiate" `Quick test_rogue_fabricate_and_repudiate;
      Alcotest.test_case "history" `Quick test_history;
      Alcotest.test_case "assess prior" `Quick test_assess_no_evidence;
      Alcotest.test_case "assess scores" `Quick test_assess_scores;
      Alcotest.test_case "assess rejects invalid" `Quick test_assess_rejects_invalid;
      Alcotest.test_case "feedback discounts" `Quick test_feedback_discounts_vouchers;
      Alcotest.test_case "feedback disabled" `Quick test_feedback_disabled;
      Alcotest.test_case "invalid threshold" `Quick test_assess_invalid_threshold;
      Alcotest.test_case "simulation deterministic" `Quick test_simulation_deterministic;
      Alcotest.test_case "honest population" `Quick test_simulation_honest_population;
      Alcotest.test_case "byzantine detection" `Slow test_simulation_detects_byzantine;
      Alcotest.test_case "collusion vs discounting" `Slow test_simulation_collusion_needs_discounting;
      Alcotest.test_case "parameter validation" `Quick test_simulation_validates_params;
      Alcotest.test_case "tenfold re-presentation" `Quick test_dedup_tenfold;
      Alcotest.test_case "rejection causes split" `Quick test_rejection_causes_split;
      Alcotest.test_case "decision log roundtrip" `Quick test_decision_log_roundtrip;
      Alcotest.test_case "decision log export golden" `Quick test_decision_log_export_golden;
      Alcotest.test_case "decay moves to prior" `Quick test_decay_moves_to_prior;
      Alcotest.test_case "cached aggregate = full recompute" `Quick test_cached_matches_full;
      Alcotest.test_case "chunk store (qcheck)" `Quick test_chunks_are_one_string;
      Alcotest.test_case "durable chain resume" `Quick test_resume_chain;
      Alcotest.test_case "env facts round-trip (qcheck)" `Quick test_env_facts_roundtrip;
      Alcotest.test_case "decay monotone (qcheck)" `Quick test_prop_decay_monotone;
      Alcotest.test_case "score monotone (qcheck)" `Quick test_prop_score_monotone;
      Alcotest.test_case "dedup idempotent (qcheck)" `Quick test_prop_dedup_idempotent;
      Alcotest.test_case "weight clamped (qcheck)" `Quick test_prop_weight_clamped;
      Alcotest.test_case "chain tamper detected (qcheck)" `Quick test_prop_chain_tamper_detected;
    ] )
