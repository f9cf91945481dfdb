module World = Oasis_core.World
module Service = Oasis_core.Service
module Principal = Oasis_core.Principal
module Protocol = Oasis_core.Protocol
module Civ = Oasis_domain.Civ
module Env = Oasis_policy.Env
module Value = Oasis_util.Value
module Ident = Oasis_util.Ident
module Obs = Oasis_obs.Obs
module Fault = Oasis_sim.Fault

type outcome = {
  log : string list;
  failures : string list;
  metrics : (string * float) list;
  chains : (string * Oasis_trust.Decision_log.t) list;
}

type error = { line : int; message : string }

let pp_error ppf { line; message } = Format.fprintf ppf "scenario error, line %d: %s" line message

exception Stop of error

let fail line fmt = Format.kasprintf (fun message -> raise (Stop { line; message })) fmt

(* A certificate a label can refer to. *)
type labelled =
  | Civ_appt of Oasis_cert.Appointment.t
  | Svc_appt of Service.t * Oasis_cert.Appointment.t
  | Role_rmc of Service.t * Oasis_cert.Rmc.t

type state = {
  mutable world : World.t option;
  mutable civ : Civ.t option;
  sink : Obs.sink option;
  mutable seed : int;
  mutable svc_config : Service.config option;
      (* config overrides (suspect-grace …) applied to services created
         after the directive; [None] keeps [Service.default_config] *)
  services : (string, Service.t) Hashtbl.t;
  principals : (string, Principal.t) Hashtbl.t;
  sessions : (string, Principal.t * Principal.session) Hashtbl.t;
  labels : (string, labelled) Hashtbl.t;
  mutable log : string list;
  mutable failures : string list;
}

let fresh_state ?sink () =
  {
    world = None;
    civ = None;
    sink;
    seed = 1;
    svc_config = None;
    services = Hashtbl.create 8;
    principals = Hashtbl.create 8;
    sessions = Hashtbl.create 8;
    labels = Hashtbl.create 8;
    log = [];
    failures = [];
  }

let say st fmt = Format.kasprintf (fun s -> st.log <- s :: st.log) fmt

let world st line =
  match st.world with
  | Some w -> w
  | None ->
      let w = World.create ~seed:st.seed () in
      (* The sink must see every event, so it attaches before any service
         or certificate exists. *)
      (match st.sink with Some sink -> Obs.attach (World.obs w) sink | None -> ());
      let config = Option.value st.svc_config ~default:Service.default_config in
      let civ = Civ.create w ~name:"civ" ~offline_sign:config.offline_sign () in
      st.world <- Some w;
      st.civ <- Some civ;
      ignore line;
      w

let civ st line =
  ignore (world st line);
  Option.get st.civ

let find tbl line kind name =
  match Hashtbl.find_opt tbl name with
  | Some v -> v
  | None -> fail line "unknown %s %s" kind name

(* ------------------------------------------------------------------ *)
(* Line-level tokenizing                                              *)
(* ------------------------------------------------------------------ *)

let strip_comment s = match String.index_opt s '#' with Some i -> String.sub s 0 i | None -> s

(* Splits "name(arg, arg)" into (name, Some "arg, arg"); plain names give
   (name, None). *)
let split_call line s =
  match String.index_opt s '(' with
  | None -> (s, None)
  | Some i ->
      if s.[String.length s - 1] <> ')' then fail line "missing ')' in %s" s;
      (String.sub s 0 i, Some (String.sub s (i + 1) (String.length s - i - 2)))

let arg_tokens s =
  (* Split on commas outside quotes. *)
  let parts = ref [] in
  let buf = Buffer.create 16 in
  let in_string = ref false in
  String.iter
    (fun c ->
      if c = '"' then begin
        in_string := not !in_string;
        Buffer.add_char buf c
      end
      else if c = ',' && not !in_string then begin
        parts := Buffer.contents buf :: !parts;
        Buffer.clear buf
      end
      else Buffer.add_char buf c)
    s;
  parts := Buffer.contents buf :: !parts;
  (* [parts] accumulated in reverse; rev_map restores source order. *)
  List.rev_map String.trim !parts |> List.filter (fun p -> p <> "")

let parse_value st line token =
  match Hashtbl.find_opt st.principals token with
  | Some p -> Value.Id (Principal.id p)
  | None -> (
      match int_of_string_opt token with
      | Some n -> Value.Int n
      | None -> (
          if token = "true" then Value.Bool true
          else if token = "false" then Value.Bool false
          else if String.length token >= 2 && token.[0] = '"' then
            Value.Str (String.sub token 1 (String.length token - 2))
          else
            match float_of_string_opt token with
            | Some f -> Value.Time f
            | None -> fail line "cannot read argument %s (unknown principal?)" token))

let parse_args st line = function
  | None -> []
  | Some s -> List.map (parse_value st line) (arg_tokens s)

let parse_pins st line = function
  | None -> []
  | Some s ->
      List.map
        (fun token -> if token = "_" then None else Some (parse_value st line token))
        (arg_tokens s)

(* Pulls "expect granted|denied", "as LABEL", "expires F", "to NAME" options
   off the tail of a word list. Returns (remaining, options). *)
type opts = {
  mutable expect : [ `Granted | `Denied ] option;
  mutable label : string option;
  mutable expires : float option;
  mutable recipient : string option;
}

let take_options line words =
  let opts = { expect = None; label = None; expires = None; recipient = None } in
  let rec go = function
    | "expect" :: "granted" :: rest ->
        opts.expect <- Some `Granted;
        go rest
    | "expect" :: "denied" :: rest ->
        opts.expect <- Some `Denied;
        go rest
    | "as" :: label :: rest ->
        opts.label <- Some label;
        go rest
    | "expires" :: f :: rest ->
        (match float_of_string_opt f with
        | Some v -> opts.expires <- Some v
        | None -> fail line "bad expiry %s" f);
        go rest
    | "to" :: name :: rest ->
        opts.recipient <- Some name;
        go rest
    | [] -> []
    | word :: _ -> fail line "unexpected word %s" word
  in
  let rec split acc = function
    | ("expect" | "as" | "expires" | "to") :: _ as tail ->
        ignore (go tail);
        List.rev acc
    | w :: rest -> split (w :: acc) rest
    | [] -> List.rev acc
  in
  let remaining = split [] words in
  (remaining, opts)

let check_expectation st line what result opts =
  match (opts.expect, result) with
  | None, _ -> ()
  | Some `Granted, Ok () -> ()
  | Some `Denied, Error _ -> ()
  | Some `Granted, Error denial ->
      st.failures <-
        Printf.sprintf "line %d: %s expected granted, was denied (%s)" line what
          (Protocol.denial_to_string denial)
        :: st.failures
  | Some `Denied, Ok () ->
      st.failures <- Printf.sprintf "line %d: %s expected denied, was granted" line what :: st.failures

(* ------------------------------------------------------------------ *)
(* Command execution                                                  *)
(* ------------------------------------------------------------------ *)

let remember_label st opts labelled =
  match opts.label with Some l -> Hashtbl.replace st.labels l labelled | None -> ()

let exec_grant st line words opts =
  match words with
  | [ call ] ->
      let kind, args = split_call line call in
      let holder_name =
        match opts.recipient with Some n -> n | None -> fail line "grant needs 'to PRINCIPAL'"
      in
      let holder = find st.principals line "principal" holder_name in
      let appt =
        Civ.issue (civ st line) ~kind
          ~args:(parse_args st line args)
          ~holder:(Principal.id holder)
          ~holder_key:(Principal.longterm_public holder)
          ?expires_at:opts.expires ()
      in
      Principal.grant_appointment holder appt;
      remember_label st opts (Civ_appt appt);
      say st "granted %s to %s" call holder_name
  | _ -> fail line "grant KIND(args) to PRINCIPAL [as LABEL] [expires F]"

let exec_activate st line words opts =
  match words with
  | [ pname; sname; svc_name; call ] ->
      let p, session =
        ( find st.principals line "principal" pname,
          snd (find st.sessions line "session" sname) )
      in
      let svc = find st.services line "service" svc_name in
      let role, pins = split_call line call in
      let args = parse_pins st line pins in
      let result =
        World.run_proc (world st line) (fun () -> Principal.activate p session svc ~role ~args ())
      in
      (match result with
      | Ok rmc ->
          remember_label st opts (Role_rmc (svc, rmc));
          say st "%s activated %s at %s" pname call svc_name
      | Error d -> say st "%s denied %s at %s (%s)" pname call svc_name (Protocol.denial_to_string d));
      check_expectation st line (Printf.sprintf "activate %s" call)
        (Result.map (fun _ -> ()) result)
        opts
  | _ -> fail line "activate PRINCIPAL SESSION SERVICE ROLE[(pins)] [as LABEL] [expect ...]"

let exec_invoke st line words opts =
  match words with
  | [ pname; sname; svc_name; call ] ->
      let p = find st.principals line "principal" pname in
      let _, session = find st.sessions line "session" sname in
      let svc = find st.services line "service" svc_name in
      let privilege, args = split_call line call in
      let result =
        World.run_proc (world st line) (fun () ->
            Principal.invoke p session svc ~privilege ~args:(parse_args st line args))
      in
      (match result with
      | Ok _ -> say st "%s invoked %s at %s" pname call svc_name
      | Error d -> say st "%s refused %s at %s (%s)" pname call svc_name (Protocol.denial_to_string d));
      check_expectation st line (Printf.sprintf "invoke %s" call)
        (Result.map (fun _ -> ()) result)
        opts
  | _ -> fail line "invoke PRINCIPAL SESSION SERVICE PRIV(args) [expect ...]"

let exec_appoint st line words opts =
  match words with
  | [ pname; sname; svc_name; call ] ->
      let p = find st.principals line "principal" pname in
      let _, session = find st.sessions line "session" sname in
      let svc = find st.services line "service" svc_name in
      let kind, args = split_call line call in
      let holder_name =
        match opts.recipient with Some n -> n | None -> fail line "appoint needs 'to PRINCIPAL'"
      in
      let holder = find st.principals line "principal" holder_name in
      let result =
        World.run_proc (world st line) (fun () ->
            Principal.appoint p session svc ~kind ~args:(parse_args st line args) ~holder
              ?expires_at:opts.expires ())
      in
      (match result with
      | Ok appt ->
          remember_label st opts (Svc_appt (svc, appt));
          say st "%s appointed %s to %s at %s" pname call holder_name svc_name
      | Error d -> say st "%s refused appointment %s (%s)" svc_name call (Protocol.denial_to_string d));
      check_expectation st line (Printf.sprintf "appoint %s" call)
        (Result.map (fun _ -> ()) result)
        opts
  | _ -> fail line "appoint PRINCIPAL SESSION SERVICE KIND(args) to HOLDER [as LABEL] [expect ...]"

let exec_revoke st line words =
  match words with
  | [ label ] -> (
      match find st.labels line "label" label with
      | Civ_appt appt ->
          let changed =
            Civ.revoke (civ st line) appt.Oasis_cert.Appointment.id ~reason:"scenario revoke"
          in
          say st "revoked %s (%b)" label changed
      | Svc_appt (svc, appt) ->
          let changed =
            Service.revoke_certificate svc appt.Oasis_cert.Appointment.id
              ~reason:"scenario revoke"
          in
          say st "revoked %s (%b)" label changed
      | Role_rmc (svc, rmc) ->
          let changed =
            Service.revoke_certificate svc rmc.Oasis_cert.Rmc.id ~reason:"scenario revoke"
          in
          say st "revoked %s (%b)" label changed)
  | _ -> fail line "revoke LABEL"

let exec_fact st line assertp words =
  match words with
  | [ svc_name; call ] ->
      let svc = find st.services line "service" svc_name in
      let pred, args = split_call line call in
      let values = parse_args st line args in
      if assertp then Env.assert_fact (Service.env svc) pred values
      else Env.retract_fact (Service.env svc) pred values;
      say st "%s %s at %s" (if assertp then "asserted" else "retracted") call svc_name
  | _ -> fail line "fact|retract SERVICE PRED(args)"

let resolve_node st line name =
  match World.resolve (world st line) name with
  | Some id -> id
  | None -> fail line "unknown service %s" name

let parse_group st line s =
  match
    String.split_on_char ',' s |> List.map String.trim |> List.filter (fun x -> x <> "")
  with
  | [] -> fail line "empty partition side"
  | names -> List.map (resolve_node st line) names

let exec_fault st line words =
  let fault = World.fault (world st line) in
  match words with
  | [ "partition"; name; groups ] -> (
      match String.split_on_char '|' groups with
      | [ left; right ] -> (
          let left = parse_group st line left and right = parse_group st line right in
          match Fault.partition fault ~name left right with
          | () -> say st "partition %s installed: %s" name groups
          | exception Invalid_argument m -> fail line "%s" m)
      | _ -> fail line "fault partition NAME A,B|C,D")
  | [ "heal"; name ] -> (
      match Fault.heal fault name with
      | () -> say st "partition %s healed" name
      | exception Invalid_argument m -> fail line "%s" m)
  | [ "crash"; node ] ->
      Fault.crash fault (resolve_node st line node);
      say st "crashed %s" node
  | [ "restart"; node ] -> (
      match Fault.restart fault (resolve_node st line node) with
      | () -> say st "restarted %s" node
      | exception Service.Chain_tampered { service; seq; why } ->
          fail line "restart refused: %s decision log tampered at seq %d (%s)" service seq why)
  | _ -> fail line "fault partition NAME A|B, fault heal NAME, fault crash|restart SERVICE"

let show st line svc_name =
  let svc = find st.services line "service" svc_name in
  let stats = Service.stats svc in
  say st "%s: %d active role(s); act +%d/-%d; inv +%d/-%d; revocations %d" svc_name
    (List.length (Service.active_roles svc))
    stats.Service.activations_granted stats.Service.activations_denied
    stats.Service.invocations_granted stats.Service.invocations_denied stats.Service.revocations;
  List.iter
    (fun (_, role, args, principal) ->
      say st "  %s(%s) held by %s" role
        (String.concat ", " (List.map Value.to_string args))
        (Ident.to_string principal))
    (Service.active_roles svc)

(* ------------------------------------------------------------------ *)
(* Driver                                                             *)
(* ------------------------------------------------------------------ *)

(* Removes whitespace inside parentheses (but not inside quotes) so that
   "read_record(alice, 5)" is one word. *)
let normalize_calls s =
  let buf = Buffer.create (String.length s) in
  let depth = ref 0 and in_string = ref false in
  String.iter
    (fun c ->
      if c = '"' then begin
        in_string := not !in_string;
        Buffer.add_char buf c
      end
      else if (c = ' ' || c = '\t') && !depth > 0 && not !in_string then ()
      else begin
        if not !in_string then
          if c = '(' then incr depth else if c = ')' then decr depth;
        Buffer.add_char buf c
      end)
    s;
  Buffer.contents buf

(* Whitespace split that keeps quoted strings intact. *)
let split_words s =
  let s = normalize_calls s in
  let words = ref [] in
  let buf = Buffer.create 16 in
  let in_string = ref false in
  let flush () =
    if Buffer.length buf > 0 then begin
      words := Buffer.contents buf :: !words;
      Buffer.clear buf
    end
  in
  String.iter
    (fun c ->
      if c = '"' then begin
        in_string := not !in_string;
        Buffer.add_char buf c
      end
      else if (c = ' ' || c = '\t') && not !in_string then flush ()
      else Buffer.add_char buf c)
    s;
  flush ();
  List.rev !words

(* Collects a service's policy block: lines until a '}' line. [header] is
   the line number of the opening "service NAME {"; the returned text is
   padded with that many leading newlines so parser positions (and hence
   lint/parse diagnostics) are absolute within the scenario file. *)
let collect_policy ~header lines =
  let rec go lines acc =
    match lines with
    | [] -> None
    | (_, text) :: rest ->
        if String.trim text = "}" then
          Some (String.make header '\n' ^ String.concat "\n" (List.rev acc), rest)
        else go rest (strip_comment text :: acc)
  in
  go lines []

let comparator line op =
  match op with
  | "==" -> ( = )
  | "!=" -> ( <> )
  | "<=" -> ( <= )
  | ">=" -> ( >= )
  | "<" -> ( < )
  | ">" -> ( > )
  | _ -> fail line "bad comparison %s (use == != <= >= < >)" op

(* expect-metric KEY OP VALUE over the world registry's rendered keys. *)
let exec_expect_metric st line key op want =
  let w = world st line in
  let want =
    match float_of_string_opt want with
    | Some v -> v
    | None -> fail line "bad metric value %s" want
  in
  let compare_fn = comparator line op in
  match Obs.value (World.obs w) key with
  | None ->
      st.failures <-
        Printf.sprintf "line %d: metric %s not registered" line key :: st.failures
  | Some got ->
      if not (compare_fn got want) then
        st.failures <-
          Printf.sprintf "line %d: expected %s %s %g, found %g" line key op want got
          :: st.failures

(* A party to an audited interaction: a declared principal, or a service
   (servers earn trust scores too). *)
let party st line name =
  match Hashtbl.find_opt st.principals name with
  | Some p -> Principal.id p
  | None -> (
      match Hashtbl.find_opt st.services name with
      | Some svc -> Service.id svc
      | None -> fail line "unknown party %s (declare a principal or service)" name)

let parse_party_outcome line s =
  match s with
  | "fulfilled" -> Oasis_trust.Audit.Fulfilled
  | "breached" -> Oasis_trust.Audit.Breached
  | _ -> fail line "bad outcome %s (use fulfilled|breached)" s

(* interact CLIENT SERVER CLIENT_OUTCOME [SERVER_OUTCOME] — the domain CIV's
   registrar witnesses a contracted interaction (Sect. 6) and issues the
   audit certificate live into both parties' wallets; trust-gated roles
   re-check. One outcome token applies to both sides. The [crash] variant
   ([interact-crash]) injects a registrar crash between the two wallet
   filings: the client's wallet gets the certificate, the server's misses
   it until a later [fault restart civ] runs anti-entropy. *)
let exec_interact st line ~crash = function
  | ([ client; server; oc ] | [ client; server; oc; _ ]) as words ->
      let client_outcome = parse_party_outcome line oc in
      let server_outcome =
        match words with
        | [ _; _; _; os ] -> parse_party_outcome line os
        | _ -> client_outcome
      in
      let c = party st line client and s = party st line server in
      let record =
        if crash then Civ.record_interaction_crashing else Civ.record_interaction
      in
      let cert =
        try record (civ st line) ~client:c ~server:s ~client_outcome ~server_outcome
        with Civ.Primary_unavailable -> fail line "interact: CIV primary is down"
      in
      say st "audit certificate %s%s: %s %s / %s %s" (Ident.to_string cert.Oasis_trust.Audit.id)
        (if crash then " (registrar crashed mid-issuance)" else "")
        client oc server
        (match server_outcome with Oasis_trust.Audit.Fulfilled -> "fulfilled" | _ -> "breached");
      World.settle (world st line)
  | _ -> fail line "interact takes CLIENT SERVER OUTCOME [OUTCOME]"

(* trust-decay RATE [TICK] — configure time-decayed reputation on the
   world assessor: weights decay as exp(-RATE * age); with TICK > 0 the
   world re-scores walleted parties every TICK virtual seconds so decay
   alone can cross gates (DESIGN.md §16). *)
let exec_trust_decay st line = function
  | ([ rate ] | [ rate; _ ]) as words ->
      let parse what s =
        match float_of_string_opt s with
        | Some v when v >= 0.0 -> v
        | _ -> fail line "bad %s %s" what s
      in
      let rate = parse "decay rate" rate in
      let tick = match words with [ _; t ] -> parse "tick" t | _ -> 0.0 in
      World.set_trust_decay (world st line) ~rate ~tick;
      say st "trust decay rate %g, re-assessment tick %g" rate tick
  | _ -> fail line "trust-decay takes RATE [TICK]"

(* expect-wallet PARTY OP N over the party's wallet size — the observable
   for half-issuance: a registrar crash between filings leaves the two
   parties' wallets one certificate apart until anti-entropy heals them. *)
let exec_expect_wallet st line subject op want =
  let w = world st line in
  let want =
    match int_of_string_opt want with
    | Some v -> v
    | None -> fail line "bad wallet size %s" want
  in
  let compare_fn = comparator line op in
  let got = Oasis_trust.History.size (World.wallet w (party st line subject)) in
  if not (compare_fn got want) then
    st.failures <-
      Printf.sprintf "line %d: expected wallet(%s) %s %d, found %d" line subject op want got
      :: st.failures

(* expect-trust SUBJECT OP VALUE against the world assessor's live score. *)
let exec_expect_trust st line subject op want =
  let w = world st line in
  let want =
    match float_of_string_opt want with
    | Some v -> v
    | None -> fail line "bad trust value %s" want
  in
  let compare_fn = comparator line op in
  let got = World.trust_score w (party st line subject) in
  if not (compare_fn got want) then
    st.failures <-
      Printf.sprintf "line %d: expected trust(%s) %s %g, found %g" line subject op want got
      :: st.failures

let run_lines ?sink lines =
  let st = fresh_state ?sink () in
  let rec step = function
    | [] -> ()
    | (line, raw) :: rest -> (
        let text = String.trim (strip_comment raw) in
        if text = "" then step rest
        else
          let words = split_words text in
          match words with
          | [ "seed"; n ] ->
              (match int_of_string_opt n with
              | Some seed when st.world = None -> st.seed <- seed
              | Some _ -> fail line "seed must come before anything else"
              | None -> fail line "bad seed %s" n);
              step rest
          | [ "service"; name; "{" ] -> (
              match collect_policy ~header:line rest with
              | None -> fail line "unterminated service block for %s" name
              | Some (policy, rest) ->
                  let w = world st line in
                  (match Service.create w ~name ?config:st.svc_config ~policy () with
                  | svc ->
                      Hashtbl.replace st.services name svc;
                      say st "service %s installed" name
                  | exception Failure m -> fail line "%s" m
                  | exception Service.Policy_rejected findings ->
                      fail line "policy for %s rejected: %s" name
                        (String.concat "; "
                           (List.map
                              (Format.asprintf "%a" Oasis_policy.Lint.pp_finding)
                              findings)));
                  step rest)
          | [ "principal"; name ] ->
              Hashtbl.replace st.principals name (Principal.create (world st line) ~name);
              say st "principal %s" name;
              step rest
          | [ "session"; pname; sname ] ->
              let p = find st.principals line "principal" pname in
              Hashtbl.replace st.sessions sname (p, Principal.start_session p);
              say st "session %s for %s" sname pname;
              step rest
          | "grant" :: tail ->
              let words, opts = take_options line tail in
              exec_grant st line words opts;
              World.settle (world st line);
              step rest
          | "activate" :: tail ->
              let words, opts = take_options line tail in
              exec_activate st line words opts;
              step rest
          | "invoke" :: tail ->
              let words, opts = take_options line tail in
              exec_invoke st line words opts;
              step rest
          | "appoint" :: tail ->
              let words, opts = take_options line tail in
              exec_appoint st line words opts;
              step rest
          | "revoke" :: tail ->
              exec_revoke st line tail;
              step rest
          | [ "offline-sign"; (("on" | "off") as v) ] ->
              (* The CIV is created with the world and keeps its scheme. *)
              if st.world <> None then fail line "offline-sign must come before anything else";
              let base = Option.value st.svc_config ~default:Service.default_config in
              st.svc_config <- Some { base with offline_sign = String.equal v "on" };
              step rest
          | [ "offline-sign"; v ] -> fail line "offline-sign takes on|off, not %s" v
          | [ "suspect-grace"; f ] ->
              (match float_of_string_opt f with
              | Some g when g >= 0.0 ->
                  let base = Option.value st.svc_config ~default:Service.default_config in
                  st.svc_config <- Some { base with suspect_grace = g }
              | _ -> fail line "bad grace %s" f);
              step rest
          | "fault" :: tail ->
              exec_fault st line tail;
              step rest
          | "fact" :: tail ->
              exec_fact st line true tail;
              step rest
          | "retract" :: tail ->
              exec_fact st line false tail;
              step rest
          | [ "declare"; svc_name; pred ] ->
              let svc = find st.services line "service" svc_name in
              Env.declare_fact (Service.env svc) pred;
              step rest
          | [ "settle" ] ->
              World.settle (world st line);
              step rest
          | [ "run-until"; f ] ->
              (match float_of_string_opt f with
              | Some t -> World.run_until (world st line) t
              | None -> fail line "bad time %s" f);
              step rest
          | [ "logout"; pname; sname ] ->
              let p = find st.principals line "principal" pname in
              let _, session = find st.sessions line "session" sname in
              World.run_proc (world st line) (fun () -> Principal.logout p session);
              say st "%s logged out of %s" pname sname;
              step rest
          | "trace" :: note ->
              (* Emits a mark into the event timeline, so exported traces
                 can be segmented by scenario position. *)
              let w = world st line in
              Obs.event (World.obs w) "scenario.mark"
                ~labels:[ ("line", string_of_int line); ("note", String.concat " " note) ];
              step rest
          | [ "expect-metric"; key; op; v ] ->
              exec_expect_metric st line key op v;
              step rest
          | [ "expect-active"; svc_name; n ] ->
              let svc = find st.services line "service" svc_name in
              let want =
                match int_of_string_opt n with Some v -> v | None -> fail line "bad count %s" n
              in
              let got = List.length (Service.active_roles svc) in
              if got <> want then
                st.failures <-
                  Printf.sprintf "line %d: expected %d active role(s) at %s, found %d" line want
                    svc_name got
                  :: st.failures;
              step rest
          | "interact" :: tail ->
              exec_interact st line ~crash:false tail;
              step rest
          | "interact-crash" :: tail ->
              exec_interact st line ~crash:true tail;
              step rest
          | "trust-decay" :: tail ->
              exec_trust_decay st line tail;
              step rest
          | [ "expect-trust"; subject; op; v ] ->
              exec_expect_trust st line subject op v;
              step rest
          | [ "expect-wallet"; subject; op; n ] ->
              exec_expect_wallet st line subject op n;
              step rest
          | [ "show"; svc_name ] ->
              show st line svc_name;
              step rest
          | word :: _ -> fail line "unknown command %s" word
          | [] -> step rest)
  in
  step lines;
  let metrics =
    match st.world with Some w -> Obs.metric_values (World.obs w) | None -> []
  in
  let chains =
    Hashtbl.fold (fun name svc acc -> (name, Service.decision_log svc) :: acc) st.services []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  { log = List.rev st.log; failures = List.rev st.failures; metrics; chains }

let run_file ?sink path =
  let source = In_channel.with_open_bin path In_channel.input_all in
  let lines = String.split_on_char '\n' source |> List.mapi (fun i l -> (i + 1, l)) in
  match run_lines ?sink lines with
  | outcome -> Ok outcome
  | exception Stop e -> Error e
  | exception Failure message -> Error { line = 0; message }

(* ------------------------------------------------------------------ *)
(* Static extraction for lint and analyze                             *)
(* ------------------------------------------------------------------ *)

(* The [service NAME { … }] blocks of a scenario, parsed. Statement
   positions are absolute within the scenario file (see collect_policy). *)
let gather_blocks source =
  let lines = String.split_on_char '\n' source |> List.mapi (fun i l -> (i + 1, l)) in
  let rec gather acc = function
    | [] -> List.rev acc
    | (line, raw) :: rest -> (
        let text = String.trim (strip_comment raw) in
        match split_words text with
        | [ "service"; name; "{" ] -> (
            match collect_policy ~header:line rest with
            | None -> fail line "unterminated service block for %s" name
            | Some (policy, rest) -> (
                match Oasis_policy.Parser.parse policy with
                | Error e ->
                    fail e.Oasis_policy.Parser.line "in service %s: %s" name
                      e.Oasis_policy.Parser.message
                | Ok statements -> gather ((name, statements) :: acc) rest))
        | _ -> gather acc rest)
  in
  gather [] lines

(* The implicit CIV can issue whatever kind any rule asks of it. *)
let civ_kinds services =
  List.concat_map
    (fun (_, statements) ->
      List.concat_map
        (fun (a : Oasis_policy.Rule.activation) ->
          List.filter_map
            (function
              | Oasis_policy.Rule.Appointment { Oasis_policy.Rule.service = Some "civ"; name; _ }
                ->
                  Some name
              | _ -> None)
            a.conditions)
        (Oasis_policy.Parser.activations statements))
    services
  |> List.sort_uniq compare

let extract_policies source =
  match gather_blocks source with
  | exception Stop e -> Error e
  | services ->
      let civ =
        {
          Oasis_policy.Lint.s_name = "civ";
          s_activations = [];
          s_authorizations = [];
          s_appointers = [];
          s_extra_kinds = civ_kinds services;
        }
      in
      Ok
        (civ
        :: List.map
             (fun (name, statements) -> Oasis_policy.Lint.of_statements ~name statements)
             services)
