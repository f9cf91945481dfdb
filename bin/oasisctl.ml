(* oasisctl — command-line front end to the OASIS reproduction.

   Subcommands:
     policy-check FILE   parse and report a policy file
     lint FILE           static policy lint with located diagnostics
     analyze FILE        role and privilege reachability, R- and L10x findings
     run FILE            execute a scenario script and check expectations
     trace FILE          execute a scenario, stream its JSONL event timeline
     stats FILE          final metrics of a scenario / summary of a timeline
     cascade             run a revocation-cascade simulation
     trust               run the Sect. 6 web-of-trust simulation
     keygen              generate a simulated key pair
*)

module World = Oasis_core.World
module Service = Oasis_core.Service
module Principal = Oasis_core.Principal
module Protocol = Oasis_core.Protocol
module Parser = Oasis_policy.Parser
module Rule = Oasis_policy.Rule
module Simulation = Oasis_trust.Simulation
module Rmc = Oasis_cert.Rmc
module Elgamal = Oasis_crypto.Elgamal

open Cmdliner

let read_file file =
  let ic = open_in file in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* ---------------- policy-check ---------------- *)

let policy_check file =
  let source = read_file file in
  match Parser.parse source with
  | Error e ->
      Format.eprintf "%s: %a\n" file Parser.pp_error e;
      exit 1
  | Ok statements ->
      let activations = Parser.activations statements in
      let authorizations = Parser.authorizations statements in
      Format.printf "%s: %d activation rule(s), %d authorization rule(s)\n" file
        (List.length activations) (List.length authorizations);
      List.iter (fun a -> Format.printf "  %a\n" Rule.pp_activation a) activations;
      List.iter (fun a -> Format.printf "  %a\n" Rule.pp_authorization a) authorizations;
      let initials = List.filter (fun (a : Rule.activation) -> a.initial) activations in
      if initials = [] && activations <> [] then
        Format.printf
          "  note: no initial role — sessions cannot start at this service alone\n";
      let monitored =
        List.fold_left
          (fun acc a -> acc + List.length (Rule.membership_conditions a))
          0 activations
      in
      Format.printf "  %d membership-monitored condition(s)\n" monitored

let policy_check_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Policy file to check.")
  in
  Cmd.v
    (Cmd.info "policy-check" ~doc:"Parse an OASIS policy file and summarise its rules")
    Term.(const policy_check $ file)

(* ---------------- analyze ---------------- *)

module Reach = Oasis_policy.Reach
module Lint = Oasis_policy.Lint

(* A .scn file carries its whole world (plus the implicit CIV); a .oasis
   file is one service whose name and extra kinds come from the flags. *)
let load_world file svc_name kinds source =
  if Filename.check_suffix file ".scn" then
    match Oasis_script.Scenario.extract_policies source with
    | Error e ->
        Format.eprintf "%a\n" Oasis_script.Scenario.pp_error e;
        exit 1
    | Ok world -> world
  else
    match Parser.parse source with
    | Error e ->
        Format.eprintf "%s: %a\n" file Parser.pp_error e;
        exit 1
    | Ok statements -> [ Lint.of_statements ~name:svc_name ~extra_kinds:kinds statements ]

let count_severity findings sev =
  List.length (List.filter (fun f -> f.Lint.severity = sev) findings)

let print_findings file findings =
  List.iter (fun f -> Format.printf "%s:%a\n" file Lint.pp_finding f) findings;
  Format.printf "%s: %d error(s), %d warning(s), %d info\n" file
    (count_severity findings Lint.Error)
    (count_severity findings Lint.Warning)
    (count_severity findings Lint.Info)

(* --held entries are "kind" (issued by the analysed service, or by the
   implicit CIV for scenarios) or "kind@service". *)
let parse_held ~default_issuer entries =
  List.map
    (fun entry ->
      match String.index_opt entry '@' with
      | Some i ->
          ( String.sub entry (i + 1) (String.length entry - i - 1),
            String.sub entry 0 i )
      | None -> (default_issuer, entry))
    entries

let analyze file svc_name kinds held adversary goal pins json =
  let source = read_file file in
  let world = load_world file svc_name kinds source in
  let default_issuer =
    if Filename.check_suffix file ".scn" then "civ" else svc_name
  in
  let held_pairs = parse_held ~default_issuer held in
  (* The footgun fix: --adversary defaults to the EMPTY wallet (the
     adversarial worst case); without it the default stays the most
     permissive principal, which is what dead-role detection wants. *)
  let creds =
    match (held_pairs, adversary) with
    | [], true -> Reach.no_credentials
    | [], false -> Reach.permissive world
    | pairs, _ -> { Reach.held_appointments = pairs; held_roles = [] }
  in
  let result = Reach.analyse ~adversary:creds ~pins world in
  (* The analysed world is closed: a reference outside it dangles. *)
  let findings =
    Reach.findings world @ Lint.dangling world
    |> Lint.apply_waivers ~waivers:(Lint.waivers source)
    |> Lint.sort_findings
  in
  match goal with
  | Some g ->
      (* Goal query: verdict-driven exit code so CI can gate on "can the
         adversary reach this role": 0 unreachable, 2 reachable,
         3 env-contingent. *)
      let svc_filter, role =
        match String.index_opt g '@' with
        | Some i ->
            (Some (String.sub g (i + 1) (String.length g - i - 1)), String.sub g 0 i)
        | None -> (None, g)
      in
      let goals =
        List.filter
          (fun gl ->
            String.equal gl.Reach.g_role role
            && match svc_filter with None -> true | Some s -> String.equal gl.Reach.g_service s)
          result.Reach.goals
      in
      if goals = [] then begin
        Format.eprintf "%s: no service defines role %s\n" file g;
        exit 1
      end;
      if json then
        print_endline (Reach.to_json ~findings { result with Reach.goals })
      else List.iter (fun gl -> Format.printf "%a\n" Reach.pp_goal gl) goals;
      let worst =
        List.fold_left
          (fun acc gl ->
            match (acc, gl.Reach.g_verdict) with
            | Reach.Reachable, _ | _, Reach.Reachable -> Reach.Reachable
            | Reach.Env_contingent, _ | _, Reach.Env_contingent -> Reach.Env_contingent
            | v, Reach.Unreachable -> v)
          Reach.Unreachable goals
      in
      exit
        (match worst with
        | Reach.Unreachable -> 0
        | Reach.Reachable -> 2
        | Reach.Env_contingent -> 3)
  | None ->
      if json then print_endline (Reach.to_json ~findings result)
      else begin
        Format.printf "%a\n" Reach.pp_result result;
        print_findings file findings
      end;
      if count_severity findings Lint.Error > 0 then exit 2

let analyze_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Policy file (.oasis) or scenario world (.scn) to analyse.")
  in
  let svc_name =
    Arg.(
      value
      & opt string "service"
      & info [ "name" ] ~doc:"Registered name of the service (single policy files).")
  in
  let kinds =
    Arg.(
      value
      & opt (list string) []
      & info [ "kinds" ] ~doc:"Appointment kinds this service can issue (comma separated).")
  in
  let held =
    Arg.(
      value
      & opt (list string) []
      & info [ "held" ]
          ~doc:
            "Appointment certificates the analysed principal holds, as KIND or KIND@SERVICE \
             (comma separated). Default without $(b,--adversary): every issuable kind (the \
             best-case principal, for dead-role detection). Default with $(b,--adversary): \
             the empty wallet (the worst case).")
  in
  let adversary =
    Arg.(
      value & flag
      & info [ "adversary" ]
          ~doc:
            "Adversarial goal-reachability: three-valued verdicts (reachable, env-contingent, \
             unreachable) with witness derivation trees, starting from an empty credential \
             wallet unless $(b,--held) says otherwise.")
  in
  let goal =
    Arg.(
      value
      & opt (some string) None
      & info [ "goal" ] ~docv:"ROLE[@SERVICE]"
          ~doc:
            "Restrict the verdict to one role. Exit code: 0 unreachable, 2 reachable, \
             3 env-contingent.")
  in
  let pins =
    Arg.(
      value
      & opt (list (pair ~sep:'=' string bool)) []
      & info [ "pin" ] ~docv:"PRED=BOOL,..."
          ~doc:
            "Pin environmental predicates true or false; unpinned predicates stay free \
             (verdicts may be env-contingent).")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Machine-readable JSON report.") in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Static policy analysis: three-valued reachability of every role and privilege under a \
          credential wallet, with witness derivations, plus R001-R003 findings and dangling \
          references (L102-L104) with lint-grade exit codes")
    Term.(const analyze $ file $ svc_name $ kinds $ held $ adversary $ goal $ pins $ json)

(* ---------------- lint ---------------- *)

let lint file svc_name kinds json strict max_depth =
  let source = read_file file in
  let scenario = Filename.check_suffix file ".scn" in
  let services = load_world file svc_name kinds source in
  (* A scenario carries its whole world, so unresolved services are real
     errors; a lone policy file legitimately references peers. *)
  let findings =
    Lint.check ~closed:scenario ~max_cascade_depth:max_depth services
    |> Lint.apply_waivers ~waivers:(Lint.waivers source)
  in
  if json then print_endline (Lint.to_json ~depths:(Lint.cascade_depths services) findings)
  else print_findings file findings;
  if count_severity findings Lint.Error > 0 || (strict && count_severity findings Lint.Warning > 0)
  then exit 2

let lint_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Policy file (.oasis) or scenario (.scn) to lint.")
  in
  let svc_name =
    Arg.(
      value
      & opt string "service"
      & info [ "name" ] ~doc:"Registered name of the service (single policy files).")
  in
  let kinds =
    Arg.(
      value
      & opt (list string) []
      & info [ "kinds" ]
          ~doc:
            "Appointment kinds the service issues through channels other than appoint rules \
             (comma separated).")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Machine-readable JSON report.") in
  let strict =
    Arg.(value & flag & info [ "strict" ] ~doc:"Exit non-zero on warnings as well as errors.")
  in
  let max_depth =
    Arg.(
      value
      & opt int 4
      & info [ "max-depth" ]
          ~doc:"Revocation-cascade depth above which L203 is reported.")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Static policy lint: dataflow, consistency and membership/revocation checks with \
          located diagnostics")
    Term.(const lint $ file $ svc_name $ kinds $ json $ strict $ max_depth)

(* ---------------- cascade ---------------- *)

let cascade depth fanout heartbeats period deadline seed =
  let monitoring =
    if heartbeats then World.Heartbeats { period; deadline } else World.Change_events
  in
  let world = World.create ~seed ~net_latency:0.001 ~notify_latency:0.001 ~monitoring () in
  (* Root service plus a [fanout]-ary dependency tree of depth [depth]. *)
  let counter = ref 0 in
  let nodes = ref [] in
  let root = Service.create world ~name:"root" ~policy:"initial role <- env:eq(1, 1);" () in
  nodes := [ ("root", root, 0) ];
  let rec grow parent level =
    if level <= depth then
      for _ = 1 to fanout do
        incr counter;
        let name = Printf.sprintf "n%d" !counter in
        let service =
          Service.create world ~name ~policy:(Printf.sprintf "role <- *role@%s;" parent) ()
        in
        nodes := (name, service, level) :: !nodes;
        grow name (level + 1)
      done
  in
  grow "root" 1;
  let ordered = List.stable_sort (fun (_, _, a) (_, _, b) -> compare a b) (List.rev !nodes) in
  let p = Principal.create world ~name:"p" in
  let session = Principal.start_session p in
  World.run_proc world (fun () ->
      List.iter
        (fun (_, service, _) ->
          match Principal.activate p session service ~role:"role" () with
          | Ok _ -> ()
          | Error d -> failwith (Protocol.denial_to_string d))
        ordered);
  let alive () =
    List.fold_left (fun acc (_, s, _) -> acc + List.length (Service.active_roles s)) 0 !nodes
  in
  Printf.printf "tree built: %d services, %d active roles\n" (List.length !nodes) (alive ());
  (* Let heartbeat traffic settle for 10 virtual seconds, then cut the root. *)
  World.run_until world (World.now world +. 10.0);
  let root_rmc =
    List.find
      (fun (r : Rmc.t) -> Oasis_util.Ident.equal r.issuer (Service.id root))
      (Principal.session_rmcs session)
  in
  let t0 = World.now world in
  ignore (Service.revoke_certificate root root_rmc.Rmc.id ~reason:"oasisctl cascade");
  let engine = World.engine world in
  let rec drive () = if alive () > 0 && Oasis_sim.Engine.step engine then drive () in
  drive ();
  Printf.printf "collapse completed in %.3f virtual seconds (%s monitoring)\n"
    (World.now world -. t0)
    (if heartbeats then Printf.sprintf "heartbeat %.1fs/%.1fs" period deadline else "change-event");
  let count key = Option.get (Oasis_obs.Obs.value (World.obs world) key) in
  Printf.printf "event-channel traffic: %.0f published, %.0f notifications delivered\n"
    (count "broker.published") (count "broker.notified")

let cascade_cmd =
  let depth =
    Arg.(value & opt int 4 & info [ "depth" ] ~doc:"Depth of the role dependency tree.")
  in
  let fanout = Arg.(value & opt int 2 & info [ "fanout" ] ~doc:"Children per node.") in
  let heartbeats =
    Arg.(value & flag & info [ "heartbeats" ] ~doc:"Monitor by heartbeats instead of change events.")
  in
  let period = Arg.(value & opt float 1.0 & info [ "period" ] ~doc:"Heartbeat period (s).") in
  let deadline =
    Arg.(value & opt float 2.5 & info [ "deadline" ] ~doc:"Heartbeat miss deadline (s).")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Simulation seed.") in
  Cmd.v
    (Cmd.info "cascade" ~doc:"Simulate a revocation cascade over a role-dependency tree (Fig. 5)")
    Term.(const cascade $ depth $ fanout $ heartbeats $ period $ deadline $ seed)

(* ---------------- trust ---------------- *)

let trust byzantine colluders padding rounds threshold no_discounting favourable seed =
  let params =
    {
      Simulation.default_params with
      byzantine_fraction = byzantine;
      colluder_fraction = colluders;
      colluder_padding = padding;
      rounds;
      threshold;
      discounting = not no_discounting;
      favourable_presentation = favourable;
      seed;
    }
  in
  let result = Simulation.run params in
  Printf.printf "round | accept-good accept-bad refuse-good refuse-bad | accuracy | rogue-weight\n";
  List.iter
    (fun (r : Simulation.round_stats) ->
      Printf.printf "%5d | %11d %10d %11d %10d | %8.3f | %12.3f\n" r.round r.proceeded_with_good
        r.proceeded_with_bad r.refused_good r.refused_bad r.accuracy r.mean_rogue_weight)
    result.Simulation.per_round;
  Printf.printf "final accuracy (last quarter): %.3f\n" result.Simulation.final_accuracy

let trust_cmd =
  let byz =
    Arg.(value & opt float 0.25 & info [ "byzantine" ] ~doc:"Fraction of Byzantine servers.")
  in
  let col =
    Arg.(value & opt float 0.0 & info [ "colluders" ] ~doc:"Fraction of colluding servers.")
  in
  let padding =
    Arg.(value & opt int 2 & info [ "padding" ] ~doc:"Fabricated certificates per colluder per round.")
  in
  let rounds = Arg.(value & opt int 30 & info [ "rounds" ] ~doc:"Rounds to simulate.") in
  let threshold = Arg.(value & opt float 0.5 & info [ "threshold" ] ~doc:"Risk threshold.") in
  let no_disc =
    Arg.(value & flag & info [ "no-discounting" ] ~doc:"Disable registrar discounting.")
  in
  let favourable =
    Arg.(value & flag & info [ "favourable" ] ~doc:"Servers present only favourable certificates.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Simulation seed.") in
  Cmd.v
    (Cmd.info "trust" ~doc:"Run the Sect. 6 audit-certificate marketplace simulation")
    Term.(
      const trust $ byz $ col $ padding $ rounds $ threshold $ no_disc $ favourable $ seed)

(* ---------------- run (scenario scripts) ---------------- *)

let run_scenario file =
  match Oasis_script.Scenario.run_file file with
  | Error e ->
      Format.eprintf "%a\n" Oasis_script.Scenario.pp_error e;
      exit 1
  | Ok outcome ->
      List.iter print_endline outcome.Oasis_script.Scenario.log;
      (match outcome.Oasis_script.Scenario.failures with
      | [] -> print_endline "all expectations met"
      | failures ->
          List.iter (fun f -> Printf.eprintf "EXPECTATION FAILED: %s\n" f) failures;
          exit 2)

let run_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Scenario script to run.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Execute a scenario script (.scn) and check its expectations")
    Term.(const run_scenario $ file)

(* ---------------- trace ---------------- *)

module Obs = Oasis_obs.Obs

let trace file output check =
  let oc, close =
    match output with
    | None | Some "-" -> (stdout, fun () -> ())
    | Some path ->
        let oc = open_out path in
        (oc, fun () -> close_out oc)
  in
  let bad = ref 0 in
  let emitted = ref 0 in
  let sink event =
    let line = Obs.event_to_jsonl event in
    (if check then
       match Obs.validate_jsonl_line line with
       | Ok () -> ()
       | Error why ->
           incr bad;
           Printf.eprintf "SCHEMA: %s: %s\n" why line);
    incr emitted;
    output_string oc line;
    output_char oc '\n'
  in
  match Oasis_script.Scenario.run_file ~sink file with
  | Error e ->
      close ();
      Format.eprintf "%a\n" Oasis_script.Scenario.pp_error e;
      exit 1
  | Ok outcome ->
      close ();
      Printf.eprintf "%d event(s)\n" !emitted;
      List.iter (fun f -> Printf.eprintf "EXPECTATION FAILED: %s\n" f) outcome.failures;
      if !bad > 0 then begin
        Printf.eprintf "%d event(s) failed the JSONL schema check\n" !bad;
        exit 2
      end;
      if outcome.failures <> [] then exit 2

let trace_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Scenario script to trace.")
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write the JSONL timeline here ('-' = stdout).")
  in
  let check =
    Arg.(value & flag & info [ "check" ] ~doc:"Validate every line against the event schema.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Execute a scenario and stream its event timeline (role activations, validation \
          callbacks, env-change revocation cascades) as JSONL")
    Term.(const trace $ file $ output $ check)

(* ---------------- stats ---------------- *)

let print_metrics metrics =
  let is_int v = Float.is_integer v && Float.abs v < 1e15 in
  List.iter
    (fun (key, v) ->
      if is_int v then Printf.printf "%-60s %d\n" key (int_of_float v)
      else Printf.printf "%-60s %g\n" key v)
    metrics

let stats file =
  if Filename.check_suffix file ".scn" then begin
    match Oasis_script.Scenario.run_file file with
    | Error e ->
        Format.eprintf "%a\n" Oasis_script.Scenario.pp_error e;
        exit 1
    | Ok outcome ->
        print_metrics outcome.Oasis_script.Scenario.metrics;
        List.iter (fun f -> Printf.eprintf "EXPECTATION FAILED: %s\n" f) outcome.failures;
        if outcome.failures <> [] then exit 2
  end
  else begin
    (* A JSONL timeline from `oasisctl trace`: summarise event counts. *)
    let counts = Hashtbl.create 32 in
    let ic = open_in file in
    let bad = ref 0 in
    (try
       while true do
         let line = input_line ic in
         if String.trim line <> "" then
           match Obs.event_of_jsonl line with
           | Ok event ->
               let key = Hashtbl.find_opt counts event.Obs.name |> Option.value ~default:0 in
               Hashtbl.replace counts event.Obs.name (key + 1)
           | Error why ->
               incr bad;
               Printf.eprintf "SCHEMA: %s: %s\n" why line
       done
     with End_of_file -> close_in ic);
    Hashtbl.fold (fun name n acc -> (name, n) :: acc) counts []
    |> List.sort compare
    |> List.iter (fun (name, n) -> Printf.printf "%-40s %d\n" name n);
    if !bad > 0 then exit 2
  end

let stats_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Scenario (.scn) to run, or a JSONL timeline to summarise.")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Run a scenario and print its final metrics registry, or summarise event counts of a \
          JSONL timeline")
    Term.(const stats $ file)

(* ---------------- audit ---------------- *)

module Dlog = Oasis_trust.Decision_log

(* Runs a scenario for its per-service decision logs; expectation failures
   inside the scenario are reported but do not block auditing — the chains
   are evidence either way. *)
let scenario_chains file =
  match Oasis_script.Scenario.run_file file with
  | Error e ->
      Format.eprintf "%a\n" Oasis_script.Scenario.pp_error e;
      exit 1
  | Ok outcome ->
      List.iter
        (fun f -> Printf.eprintf "note: scenario expectation failed: %s\n" f)
        outcome.Oasis_script.Scenario.failures;
      outcome.Oasis_script.Scenario.chains

let pp_verdict name = function
  | Ok n -> Printf.printf "%-20s %6d record(s)  chain intact\n" name n
  | Error (seq, why) -> Printf.printf "%-20s chain BROKEN at record %d: %s\n" name seq why

let audit_verify file tamper export_dir =
  if Filename.check_suffix file ".scn" then begin
    let chains = scenario_chains file in
    if chains = [] then begin
      Printf.eprintf "no services in %s\n" file;
      exit 1
    end;
    (match export_dir with
    | None -> ()
    | Some dir ->
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        List.iter
          (fun (name, log) ->
            let path = Filename.concat dir (name ^ ".audit") in
            let oc = open_out path in
            output_string oc (Dlog.export log);
            close_out oc;
            Printf.printf "exported %s\n" path)
          chains);
    match tamper with
    | None ->
        let ok = ref true in
        List.iter
          (fun (name, log) ->
            let live = Dlog.verify log in
            let offline = Dlog.verify_string (Dlog.export log) in
            (match (live, offline) with
            | Ok _, Error (seq, why) ->
                (* The in-memory chain verifies but its export does not:
                   a codec bug, not a tampered log — still a failure. *)
                pp_verdict name (Error (seq, "export: " ^ why))
            | _ -> pp_verdict name live);
            if Result.is_error live || Result.is_error offline then ok := false)
          chains;
        if not !ok then exit 2
    | Some byte ->
        (* Adversary drill: flip one bit of each exported chain and prove
           verification catches it. Exit 0 only if every flip is caught. *)
        let all_caught = ref true in
        List.iter
          (fun (name, log) ->
            let exported = Dlog.export log in
            match Dlog.verify_string (Dlog.tamper exported ~byte) with
            | Error (seq, why) ->
                Printf.printf "%-20s tampered byte %d detected at record %d: %s\n" name
                  (byte mod String.length exported)
                  seq why
            | Ok n ->
                all_caught := false;
                Printf.printf "%-20s UNDETECTED tamper (byte %d, %d record(s) still verify)\n"
                  name byte n)
          chains;
        if not !all_caught then exit 2
  end
  else begin
    (* A previously exported chain file: offline re-verification. *)
    let ic = open_in_bin file in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    let s = match tamper with None -> s | Some byte -> Dlog.tamper s ~byte in
    match Dlog.verify_string s with
    | Ok n ->
        Printf.printf "%s: %d record(s), chain intact\n" file n;
        if tamper <> None then begin
          Printf.printf "UNDETECTED tamper\n";
          exit 2
        end
    | Error (seq, why) ->
        Printf.printf "%s: chain broken at record %d: %s\n" file seq why;
        if tamper = None then exit 2
  end

let matches_filter svc_filter decision_filter principal_filter since name (r : Dlog.record) =
  (match svc_filter with None -> true | Some s -> String.equal s name)
  && (match decision_filter with
     | None -> true
     | Some d -> String.equal d (Dlog.decision_label r.Dlog.decision))
  && (match principal_filter with
     | None -> true
     | Some p -> String.equal p (Oasis_util.Ident.to_string r.Dlog.principal))
  && match since with None -> true | Some t -> r.Dlog.at >= t

let json_string = Lint.json_string

let record_json name (r : Dlog.record) =
  Printf.sprintf
    "{\"service\":%s,\"seq\":%d,\"at\":%.3f,\"decision\":%s,\"principal\":%s,\"action\":%s,\"rule\":%s,\"creds\":[%s],\"hash\":%s}"
    (json_string name) r.Dlog.seq r.Dlog.at
    (json_string (Dlog.decision_label r.Dlog.decision))
    (json_string (Oasis_util.Ident.to_string r.Dlog.principal))
    (json_string r.Dlog.action) (json_string r.Dlog.rule)
    (String.concat ","
       (List.map (fun c -> json_string (Oasis_util.Ident.to_string c)) r.Dlog.creds))
    (json_string (Oasis_crypto.Sha256.to_hex r.Dlog.hash))

let audit_query file svc_filter decision_filter principal_filter since limit json =
  let chains = scenario_chains file in
  (match decision_filter with
  | Some d when Dlog.decision_of_label d = None ->
      Printf.eprintf "unknown decision %s (grant|deny|revoke|suspect|reconcile)\n" d;
      exit 1
  | _ -> ());
  let selected = ref [] in
  List.iter
    (fun (name, log) ->
      List.iter
        (fun (r : Dlog.record) ->
          if
            List.length !selected < limit
            && matches_filter svc_filter decision_filter principal_filter since name r
          then selected := (name, r) :: !selected)
        (Dlog.records log))
    chains;
  let selected = List.rev !selected in
  if json then
    print_endline
      (Printf.sprintf "{\"records\":[%s],\"count\":%d}"
         (String.concat "," (List.map (fun (name, r) -> record_json name r) selected))
         (List.length selected))
  else begin
    Printf.printf "%-16s %4s %9s %-9s %-16s %-28s %s\n" "service" "seq" "at" "decision"
      "principal" "action" "rule";
    List.iter
      (fun (name, (r : Dlog.record)) ->
        Printf.printf "%-16s %4d %9.3f %-9s %-16s %-28s %s\n" name r.Dlog.seq r.Dlog.at
          (Dlog.decision_label r.Dlog.decision)
          (Oasis_util.Ident.to_string r.Dlog.principal)
          r.Dlog.action r.Dlog.rule)
      selected;
    Printf.printf "%d record(s)\n" (List.length selected)
  end

let audit_why file svc_filter seq cert =
  let chains = scenario_chains file in
  let chains =
    match svc_filter with
    | None -> chains
    | Some s -> List.filter (fun (name, _) -> String.equal name s) chains
  in
  let wanted (r : Dlog.record) =
    (match seq with None -> cert <> None | Some n -> r.Dlog.seq = n)
    && match cert with
       | None -> true
       | Some id ->
           List.exists (fun c -> String.equal id (Oasis_util.Ident.to_string c)) r.Dlog.creds
  in
  let found = ref false in
  List.iter
    (fun (name, log) ->
      List.iter
        (fun (r : Dlog.record) ->
          if wanted r then begin
            found := true;
            Printf.printf "service:   %s\nseq:       %d\nat:        %.3f\ndecision:  %s\n" name
              r.Dlog.seq r.Dlog.at
              (Dlog.decision_label r.Dlog.decision);
            Printf.printf "principal: %s\naction:    %s\n"
              (Oasis_util.Ident.to_string r.Dlog.principal)
              r.Dlog.action;
            if r.Dlog.args <> [] then
              Printf.printf "args:      %s\n"
                (String.concat ", " (List.map Oasis_util.Value.to_string r.Dlog.args));
            if r.Dlog.rule <> "" then Printf.printf "rule:      %s\n" r.Dlog.rule;
            if r.Dlog.creds <> [] then
              Printf.printf "creds:     %s\n"
                (String.concat ", " (List.map Oasis_util.Ident.to_string r.Dlog.creds));
            if r.Dlog.env_facts <> [] then
              Printf.printf "env:       %s\n" (String.concat "; " r.Dlog.env_facts);
            if r.Dlog.trace_seq > 0 then Printf.printf "trace-seq: %d\n" r.Dlog.trace_seq;
            Printf.printf "prev:      %s\nhash:      %s\n\n"
              (Oasis_crypto.Sha256.to_hex r.Dlog.prev)
              (Oasis_crypto.Sha256.to_hex r.Dlog.hash)
          end)
        (Dlog.records log))
    chains;
  if not !found then begin
    Printf.eprintf "no matching decision record\n";
    exit 1
  end

let scn_arg doc = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)

let audit_verify_cmd =
  let file =
    scn_arg "Scenario (.scn) to run and audit, or a previously exported chain file."
  in
  let tamper =
    Arg.(
      value
      & opt (some int) None
      & info [ "tamper" ] ~docv:"BYTE"
          ~doc:"Flip one bit of the exported chain at byte $(docv) and prove detection.")
  in
  let export_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "export" ] ~docv:"DIR"
          ~doc:"Also write each service's chain to $(docv)/<service>.audit for offline audit.")
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Re-derive every hash of each service's decision chain from genesis; any mutated byte \
          breaks verification")
    Term.(const audit_verify $ file $ tamper $ export_dir)

let audit_query_cmd =
  let file = scn_arg "Scenario (.scn) to run and query." in
  let svc =
    Arg.(value & opt (some string) None & info [ "service" ] ~docv:"NAME" ~doc:"Only this service.")
  in
  let decision =
    Arg.(
      value
      & opt (some string) None
      & info [ "decision" ] ~docv:"D" ~doc:"Only grant|deny|revoke|suspect|reconcile records.")
  in
  let principal =
    Arg.(
      value
      & opt (some string) None
      & info [ "principal" ] ~docv:"IDENT" ~doc:"Only decisions about this principal.")
  in
  let since =
    Arg.(
      value
      & opt (some float) None
      & info [ "since" ] ~docv:"TIME"
          ~doc:"Only decisions at or after virtual time $(docv) (seconds).")
  in
  let limit = Arg.(value & opt int 200 & info [ "limit" ] ~docv:"N" ~doc:"At most $(docv) rows.") in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Machine-readable JSON report.") in
  Cmd.v
    (Cmd.info "query" ~doc:"List decision records with their firing rule, filtered")
    Term.(const audit_query $ file $ svc $ decision $ principal $ since $ limit $ json)

let audit_why_cmd =
  let file = scn_arg "Scenario (.scn) to run and explain." in
  let svc =
    Arg.(value & opt (some string) None & info [ "service" ] ~docv:"NAME" ~doc:"Only this service.")
  in
  let seq =
    Arg.(
      value
      & opt (some int) None
      & info [ "seq" ] ~docv:"N" ~doc:"The decision record at chain position $(docv).")
  in
  let cert =
    Arg.(
      value
      & opt (some string) None
      & info [ "cert" ] ~docv:"IDENT"
          ~doc:"Every decision supported by (or granting) this certificate.")
  in
  Cmd.v
    (Cmd.info "why"
       ~doc:
         "Full provenance of a decision: the rule that fired, supporting credentials, env facts, \
          trace correlation and chain hashes")
    Term.(const audit_why $ file $ svc $ seq $ cert)

let audit_cmd =
  Cmd.group
    (Cmd.info "audit"
       ~doc:
         "Inspect and verify the hash-chained decision logs (DESIGN.md §15) a scenario's services \
          accumulate")
    [ audit_verify_cmd; audit_query_cmd; audit_why_cmd ]

(* ---------------- keygen ---------------- *)

let keygen seed =
  let rng = Oasis_util.Rng.create seed in
  let kp = Elgamal.generate rng in
  Printf.printf "public:  %s\nprivate: (held)\nself-check: %b\n"
    (Elgamal.public_to_string kp.Elgamal.public)
    (Elgamal.proves kp.Elgamal.private_key kp.Elgamal.public)

let keygen_cmd =
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Generator seed.") in
  Cmd.v
    (Cmd.info "keygen" ~doc:"Generate a simulated principal key pair")
    Term.(const keygen $ seed)

(* ---------------- main ---------------- *)

let () =
  let doc = "OASIS role-based access control — reproduction toolkit" in
  let info = Cmd.info "oasisctl" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info [ policy_check_cmd; lint_cmd; analyze_cmd; run_cmd; trace_cmd; stats_cmd; audit_cmd; cascade_cmd; trust_cmd; keygen_cmd ]))
