(* The benchmark harness: regenerates every figure/scenario of the paper as a
   measurable experiment (DESIGN.md §4, results recorded in EXPERIMENTS.md).

     dune exec bench/main.exe            -- run everything
     dune exec bench/main.exe -- E1 E5   -- run a subset

   The paper is an architecture paper: its "evaluation" is five figures plus
   scenario walkthroughs, so each experiment reproduces a figure's scenario
   and reports the quantities the architecture determines — virtual-time
   latencies, message counts, administrative costs and accuracy shapes.
   Microbenchmarks (E2/E4) use Bechamel on wall-clock time; scenario
   experiments run on the deterministic simulator. *)

module World = Oasis_core.World
module Service = Oasis_core.Service
module Principal = Oasis_core.Principal
module Protocol = Oasis_core.Protocol
module Domain = Oasis_domain.Domain
module Civ = Oasis_domain.Civ
module Sla = Oasis_domain.Sla
module Anonymity = Oasis_domain.Anonymity
module Simulation = Oasis_trust.Simulation
module Audit = Oasis_trust.Audit
module Assess = Oasis_trust.Assess
module Registrar = Oasis_trust.Registrar
module Dlog = Oasis_trust.Decision_log
module Rng = Oasis_util.Rng
module Churn = Oasis_script.Churn
module Rbac96 = Oasis_baseline.Rbac96
module Delegation = Oasis_baseline.Delegation
module Acl = Oasis_baseline.Acl
module Env = Oasis_policy.Env
module Rule = Oasis_policy.Rule
module Term = Oasis_policy.Term
module Solve = Oasis_policy.Solve
module Rmc = Oasis_cert.Rmc
module Appointment = Oasis_cert.Appointment
module Codec = Oasis_cert.Codec
module Secret = Oasis_crypto.Secret
module Sha256 = Oasis_crypto.Sha256
module Hmac = Oasis_crypto.Hmac
module Modp = Oasis_crypto.Modp
module Schnorr = Oasis_crypto.Schnorr
module Signed = Oasis_cert.Signed
module Fault = Oasis_sim.Fault
module Backoff = Oasis_util.Backoff
module Ident = Oasis_util.Ident
module Value = Oasis_util.Value
module Obs = Oasis_obs.Obs

let header title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let ok = function
  | Ok v -> v
  | Error d -> failwith ("unexpected denial: " ^ Protocol.denial_to_string d)

(* One counter of the world's registry by rendered key; a missing key is a
   typo, never a zero. *)
let metric world key =
  match Obs.value (World.obs world) key with
  | Some v -> int_of_float v
  | None -> failwith ("metric missing from registry: " ^ key)

(* ------------------------------------------------------------------ *)
(* Bechamel helper: run a set of wall-clock microbenchmarks and print
   one row per test (ns/run, r²).                                      *)
(* ------------------------------------------------------------------ *)

let bechamel_table tests =
  let open Bechamel in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let test = Test.make_grouped ~name:"g" tests in
  let raw = Benchmark.all cfg [ instance ] test in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols instance raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns = match Analyze.OLS.estimates ols with Some (e :: _) -> e | _ -> nan in
        let r2 = match Analyze.OLS.r_square ols with Some r -> r | None -> nan in
        (name, ns, r2) :: acc)
      results []
    |> List.sort compare
  in
  Printf.printf "  %-44s %14s %8s\n" "operation" "ns/op" "r2";
  List.iter (fun (name, ns, r2) -> Printf.printf "  %-44s %14.1f %8.3f\n" name ns r2) rows

(* ------------------------------------------------------------------ *)
(* E1 — Fig. 1: role dependency through prerequisite roles             *)
(* ------------------------------------------------------------------ *)

(* Chain of services s0..sd; each si requires s(i-1)'s role (monitored). *)
let build_chain world depth =
  let root = Service.create world ~name:"s0" ~policy:"initial r0 <- env:eq(1, 1);" () in
  let services = Array.make (depth + 1) root in
  for i = 1 to depth do
    services.(i) <-
      Service.create world
        ~name:(Printf.sprintf "s%d" i)
        ~policy:(Printf.sprintf "r%d <- *r%d@s%d;" i (i - 1) (i - 1))
        ()
  done;
  services

let e1 () =
  header "E1 (Fig. 1) Role dependency: activation cost vs prerequisite depth";
  Printf.printf
    "  The principal activates r0..rd in turn; rd's activation presents the whole\n\
    \  session wallet, so the issuing service validates d remote credentials.\n\n";
  Printf.printf "  %5s | %19s | %14s | %12s | %16s\n" "depth" "last act. (virt ms)"
    "msgs last act." "bytes" "session total msgs";
  List.iter
    (fun depth ->
      let world = World.create ~seed:1 ~net_latency:0.001 () in
      let services = build_chain world depth in
      let p = Principal.create world ~name:"p" in
      let session = Principal.start_session p in
      World.run_proc world (fun () ->
          for i = 0 to depth - 1 do
            ignore
              (ok (Principal.activate p session services.(i) ~role:(Printf.sprintf "r%d" i) ()))
          done);
      let sent_before = metric world "net.sent" in
      let bytes_before = metric world "net.bytes_sent" in
      let t0 = World.now world in
      World.run_proc world (fun () ->
          ignore
            (ok
               (Principal.activate p session services.(depth) ~role:(Printf.sprintf "r%d" depth) ())));
      let dt = (World.now world -. t0) *. 1000.0 in
      let sent = metric world "net.sent" in
      Printf.printf "  %5d | %19.1f | %14d | %12d | %16d\n" depth dt (sent - sent_before)
        (metric world "net.bytes_sent" - bytes_before)
        sent)
    [ 1; 2; 4; 8; 16; 32 ];
  Printf.printf
    "\n  ablation: selective presentation (only the needed prerequisite RMC)\n";
  Printf.printf "  %5s | %19s | %14s | %18s\n" "depth" "last act. (virt ms)" "msgs last act."
    "session total msgs";
  List.iter
    (fun depth ->
      let world = World.create ~seed:1 ~net_latency:0.001 () in
      let services = build_chain world depth in
      let p = Principal.create world ~name:"p" in
      let session = Principal.start_session p in
      let selective i =
        (* Present exactly the prerequisite credential the rule needs. *)
        let creds =
          if i = 0 then Protocol.no_credentials
          else
            {
              Protocol.rmcs =
                List.filter
                  (fun (r : Rmc.t) -> r.role = Printf.sprintf "r%d" (i - 1))
                  (Principal.session_rmcs session);
              appointments = [];
            }
        in
        World.run_proc world (fun () ->
            ignore
              (ok
                 (Principal.activate_with p session services.(i)
                    ~role:(Printf.sprintf "r%d" i) ~creds ())))
      in
      for i = 0 to depth - 1 do
        selective i
      done;
      let sent_before = metric world "net.sent" in
      let t0 = World.now world in
      selective depth;
      let dt = (World.now world -. t0) *. 1000.0 in
      let sent = metric world "net.sent" in
      Printf.printf "  %5d | %19.1f | %14d | %18d\n" depth dt (sent - sent_before) sent)
    [ 1; 2; 4; 8; 16; 32 ]

(* ------------------------------------------------------------------ *)
(* E2 — Fig. 2: the two service paths, wall-clock                      *)
(* ------------------------------------------------------------------ *)

let e2 () =
  header "E2 (Fig. 2) Service paths: role entry and service use, wall-clock";
  let world = World.create ~seed:2 ~net_latency:0.0 ~notify_latency:0.0 () in
  let svc =
    Service.create world ~name:"svc"
      ~policy:
        {|
          initial plain <- env:eq(1, 1);
          initial fat(a, b, c, d) <- env:four(a, b, c, d);
          priv use(u) <- plain;
        |}
      ()
  in
  Env.register (Service.env svc) "four" (fun args -> List.length args = 4);
  let p = Principal.create world ~name:"p" in
  let session = Principal.start_session p in
  World.run_proc world (fun () -> ignore (ok (Principal.activate p session svc ~role:"plain" ())));
  let pin = Some (Value.Int 7) in
  let open Bechamel in
  bechamel_table
    [
      (* Fresh session per run: the presented wallet stays constant-size. *)
      Test.make ~name:"role entry (unparametrised)"
        (Staged.stage (fun () ->
             World.run_proc world (fun () ->
                 let s = Principal.start_session p in
                 ignore (ok (Principal.activate p s svc ~role:"plain" ())))));
      Test.make ~name:"role entry (4 parameters)"
        (Staged.stage (fun () ->
             World.run_proc world (fun () ->
                 let s = Principal.start_session p in
                 ignore
                   (ok
                      (Principal.activate p s svc ~role:"fat" ~args:[ pin; pin; pin; pin ] ())))));
      Test.make ~name:"service use (authorize + audit)"
        (Staged.stage (fun () ->
             World.run_proc world (fun () ->
                 ignore
                   (ok (Principal.invoke p session svc ~privilege:"use" ~args:[ Value.Int 1 ])))));
    ];
  Printf.printf "\n  solver only: conditions per rule vs evaluation time\n";
  let solver_test n =
    let creds =
      List.init n (fun i ->
          {
            Solve.cred_id = Ident.make "cert" i;
            issuer = Ident.make "svc" 0;
            cred_name = Printf.sprintf "c%d" i;
            cred_args = [ Value.Int i ];
          })
    in
    let ctx =
      {
        Solve.find_rmcs =
          (fun ~service:_ ~name ->
            List.filter (fun (c : Solve.cred) -> String.equal c.cred_name name) creds);
        find_appointments = (fun ~issuer:_ ~name:_ -> []);
        env_check = (fun _ _ -> true);
        env_enumerate = (fun _ -> []);
      }
    in
    let rule =
      Rule.activation ~role:"r"
        ~params:[ Term.Var "x0" ]
        (List.init n (fun i ->
             ( false,
               Rule.Prereq
                 {
                   service = None;
                   name = Printf.sprintf "c%d" i;
                   args = [ Term.Var (Printf.sprintf "x%d" i) ];
                 } )))
    in
    Bechamel.Test.make
      ~name:(Printf.sprintf "solve activation, %2d conditions" n)
      (Bechamel.Staged.stage (fun () -> ignore (Solve.activation ctx rule ())))
  in
  bechamel_table (List.map solver_test [ 1; 2; 4; 8; 16 ])

(* ------------------------------------------------------------------ *)
(* E3 — Fig. 3: the cross-domain EHR session                           *)
(* ------------------------------------------------------------------ *)

(* Every issuer signs with the epoch HMAC, so each cross-service check is a
   validation callback (Fig. 3): offline-verifiable issuers would answer
   them locally and leave caching nothing to save. *)
let e3_world ~caching =
  let world = World.create ~seed:3 ~net_latency:0.002 () in
  let hospital = Domain.create world ~name:"h" ~offline_sign:false () in
  let config =
    { Service.default_config with cache_remote_validation = caching; offline_sign = false }
  in
  let portal =
    Domain.add_service hospital ~name:"portal" ~config
      ~policy:
        {|
          initial logged_in(u) <- appt:employee(u)@h.civ;
          doctor(u) <- *logged_in(u), *appt:qualified(u)@h.civ;
          treating_doctor(doc, pat) <- *doctor(doc), *env:assigned(doc, pat);
        |}
      ()
  in
  let ehr =
    Domain.add_service hospital ~name:"ehr" ~config
      ~policy:"priv request_ehr(doc, pat) <- treating_doctor(doc, pat)@h.portal;" ()
  in
  let national = Domain.create world ~name:"n" ~offline_sign:false () in
  let records =
    Domain.add_service national ~name:"records" ~config
      ~policy:"priv deliver(h, doc, pat) <- hospital(h);" ()
  in
  ignore
    (Sla.establish world ~name:"sla" ~between:records ~and_:ehr
       ~clauses:
         [
           Sla.Accept_appointment
             {
               at = "n.records";
               role = "hospital";
               params = [ Term.Var "x" ];
               kind = "accredited";
               cert_args = [ Term.Var "x" ];
               issuer = "n.civ";
               monitored = true;
               extra = [];
               initial = true;
             };
         ]);
  Env.declare_fact (Domain.env hospital) "assigned";
  let agent = Principal.create world ~name:"agent" in
  let accreditation =
    Civ.issue (Domain.civ national) ~kind:"accredited"
      ~args:[ Value.Id (Service.id portal) ]
      ~holder:(Principal.id agent) ~holder_key:(Principal.longterm_public agent) ()
  in
  Principal.grant_appointment agent accreditation;
  let agent_session = Principal.start_session agent in
  Service.register_operation ehr "request_ehr" (fun ~principal:_ args ->
      match args with
      | [ Value.Id doc; Value.Int pat ] -> (
          (if
             not
               (List.exists
                  (fun (r : Rmc.t) -> r.role = "hospital")
                  (Principal.session_rmcs agent_session))
           then ignore (ok (Principal.activate agent agent_session records ~role:"hospital" ())));
          match
            Principal.invoke agent agent_session records ~privilege:"deliver"
              ~args:[ Value.Id (Service.id portal); Value.Id doc; Value.Int pat ]
          with
          | Ok r -> r
          | Error d -> failwith (Protocol.denial_to_string d))
      | _ -> None);
  let carol = Principal.create world ~name:"carol" in
  List.iter
    (fun kind ->
      Principal.grant_appointment carol
        (Civ.issue (Domain.civ hospital) ~kind
           ~args:[ Value.Id (Principal.id carol) ]
           ~holder:(Principal.id carol) ~holder_key:(Principal.longterm_public carol) ()))
    [ "employee"; "qualified" ];
  Env.assert_fact (Domain.env hospital) "assigned" [ Value.Id (Principal.id carol); Value.Int 1 ];
  World.settle world;
  let session = Principal.start_session carol in
  World.run_proc world (fun () ->
      List.iter
        (fun role -> ignore (ok (Principal.activate carol session portal ~role ())))
        [ "logged_in"; "doctor"; "treating_doctor" ]);
  (world, ehr, carol, session)

let e3 () =
  header "E3 (Fig. 3) Cross-domain EHR invocation: caching ablation";
  Printf.printf
    "  request-EHR end to end: doctor -> hospital EHR -> national records, with\n\
    \  validation callbacks. Cached verdicts are invalidated via event channels.\n\n";
  Printf.printf "  %-10s | %6s | %10s | %12s | %10s | %13s\n" "config" "call#" "virt ms"
    "network msgs" "bytes" "callbacks out";
  List.iter
    (fun caching ->
      let world, ehr, carol, session = e3_world ~caching in
      for call = 1 to 5 do
        let sent_before = metric world "net.sent" in
        let bytes_before = metric world "net.bytes_sent" in
        let cb_before = (Service.stats ehr).Service.callbacks_out in
        let t0 = World.now world in
        World.run_proc world (fun () ->
            ignore
              (ok
                 (Principal.invoke carol session ehr ~privilege:"request_ehr"
                    ~args:[ Value.Id (Principal.id carol); Value.Int 1 ])));
        let dt = (World.now world -. t0) *. 1000.0 in
        let cb = (Service.stats ehr).Service.callbacks_out - cb_before in
        if call <= 2 || call = 5 then
          Printf.printf "  %-10s | %6d | %10.1f | %12d | %10d | %13d\n"
            (if caching then "cached" else "uncached")
            call dt
            (metric world "net.sent" - sent_before)
            (metric world "net.bytes_sent" - bytes_before)
            cb
      done)
    [ false; true ]

(* ------------------------------------------------------------------ *)
(* E4 — Fig. 4: RMC engineering microbenchmarks                        *)
(* ------------------------------------------------------------------ *)

let e4 () =
  header "E4 (Fig. 4) Certificate engineering: sign/validate wall-clock";
  let secret = Secret.of_string "bench-secret-0123456789abcdef012" in
  let issuer = Ident.make "svc" 1 in
  let args = [ Value.Id (Ident.make "principal" 1); Value.Int 42 ] in
  let rmc =
    Rmc.issue ~secret ~principal_key:"key" ~id:(Ident.make "cert" 1) ~issuer
      ~role:"treating_doctor" ~args ~issued_at:1.0
  in
  let tampered = Rmc.with_args rmc [ Value.Id (Ident.make "principal" 2); Value.Int 42 ] in
  let appt =
    Appointment.issue ~master_secret:secret ~epoch:3 ~id:(Ident.make "cert" 2) ~issuer
      ~kind:"qualified" ~args ~holder:"holder-key" ~issued_at:1.0 ~expires_at:100.0 ()
  in
  let encoded = Codec.to_string (Codec.Rmc rmc) in
  let payload = String.make 1024 'x' in
  (* The offline (Schnorr) path: a domain root, one enrolled issuer, and an
     RMC it signed; plus a decision log taking grants as Service logs them. *)
  let rng = Rng.create 4 in
  let authority = Signed.create_authority rng in
  let keypair = Signed.generate_keypair authority in
  let chain =
    Signed.enrol authority ~subject:issuer ~subject_pk:keypair.Schnorr.public ~key_epoch:0 ~now:0.0
  in
  let address = Signed.address authority in
  let signed_rmc =
    Signed.issue_rmc ~keypair ~rng ~principal_key:"key" ~id:(Ident.make "cert" 3) ~issuer
      ~role:"treating_doctor" ~args ~issued_at:1.0
  in
  let signing_bytes = Rmc.signing_bytes ~principal_key:"key" signed_rmc in
  let sg = Schnorr.sign ~secret:keypair.Schnorr.secret rng signing_bytes in
  let base = Modp.random rng and exponent = Modp.random rng in
  let log = ref (Dlog.create ~service:issuer) in
  let doctor = Ident.make "principal" 1 in
  Printf.printf "  SHA-256 kernel chosen by the CPU probe: %s\n\n"
    (if Sha256.sha_ni then "SHA instructions" else "portable OCaml");
  let open Bechamel in
  bechamel_table
    [
      Test.make ~name:"RMC issue (sign)"
        (Staged.stage (fun () ->
             ignore
               (Rmc.issue ~secret ~principal_key:"key" ~id:(Ident.make "cert" 1) ~issuer
                  ~role:"treating_doctor" ~args ~issued_at:1.0)));
      Test.make ~name:"RMC verify (valid)"
        (Staged.stage (fun () -> ignore (Rmc.verify ~secret ~principal_key:"key" rmc)));
      Test.make ~name:"RMC verify (tampered)"
        (Staged.stage (fun () -> ignore (Rmc.verify ~secret ~principal_key:"key" tampered)));
      Test.make ~name:"RMC verify (stolen: wrong key)"
        (Staged.stage (fun () -> ignore (Rmc.verify ~secret ~principal_key:"thief" rmc)));
      Test.make ~name:"appointment verify (epoch+expiry)"
        (Staged.stage (fun () ->
             ignore (Appointment.verify ~master_secret:secret ~current_epoch:3 ~now:5.0 appt)));
      Test.make ~name:"codec encode RMC"
        (Staged.stage (fun () -> ignore (Codec.to_string (Codec.Rmc rmc))));
      Test.make ~name:"codec decode RMC"
        (Staged.stage (fun () -> ignore (Codec.of_string encoded)));
      Test.make ~name:"HMAC-SHA256 (1 KiB)"
        (Staged.stage (fun () -> ignore (Hmac.mac ~key:"k" payload)));
      Test.make ~name:"SHA-256 (1 KiB)"
        (Staged.stage (fun () -> ignore (Sha256.digest_string payload)));
      Test.make ~name:"SHA-256 (1 KiB, portable kernel)"
        (Staged.stage (fun () ->
             let ctx = Sha256.init_portable () in
             Sha256.feed_string ctx payload;
             ignore (Sha256.finalize ctx)));
      Test.make ~name:"Modp.pow (61-bit exponent)"
        (Staged.stage (fun () -> ignore (Modp.pow base exponent)));
      Test.make ~name:"Schnorr sign"
        (Staged.stage (fun () ->
             ignore (Schnorr.sign ~secret:keypair.Schnorr.secret rng signing_bytes)));
      Test.make ~name:"Schnorr verify"
        (Staged.stage (fun () ->
             ignore (Schnorr.verify ~public:keypair.Schnorr.public signing_bytes sg)));
      Test.make ~name:"Signed.verify_rmc (chain + signature)"
        (Staged.stage (fun () ->
             ignore (Signed.verify_rmc ~address ~chain ~principal_key:"key" signed_rmc)));
      Test.make ~name:"decision-log append + export line"
        (Staged.stage (fun () ->
             (* A fresh log now and then keeps the retained chain small. *)
             if Dlog.length !log >= 4096 then log := Dlog.create ~service:issuer;
             ignore
               (Dlog.export_line
                  (Dlog.append !log ~at:1.0 ~decision:Dlog.Grant ~principal:doctor
                     ~action:"treating_doctor" ~args
                     ~rule:"treating_doctor(d, p) <- doctor(d), env:assigned(d, p)"
                     ~creds:[ Ident.make "cert" 3; Ident.make "cert" 2 ]
                     ~env_facts:[ "assigned(principal#1, 42)" ] ()))));
    ];
  Printf.printf "\n  certificate size vs parameter count (wire bytes)\n";
  Printf.printf "  %8s | %10s | %12s\n" "params" "RMC" "appointment";
  List.iter
    (fun n ->
      let args = List.init n (fun i -> Value.Int i) in
      let rmc =
        Rmc.issue ~secret ~principal_key:"key" ~id:(Ident.make "cert" 9) ~issuer ~role:"role"
          ~args ~issued_at:1.0
      in
      let appt =
        Appointment.issue ~master_secret:secret ~epoch:0 ~id:(Ident.make "cert" 10) ~issuer
          ~kind:"kind" ~args ~holder:"holder" ~issued_at:1.0 ()
      in
      Printf.printf "  %8d | %10d | %12d\n" n (Rmc.size_bytes rmc) (Appointment.size_bytes appt))
    [ 0; 1; 2; 4; 8; 16 ]

(* ------------------------------------------------------------------ *)
(* E5 — Fig. 5: the revocation cascade and the monitoring ablation     *)
(* ------------------------------------------------------------------ *)

(* A tree of services: a root plus [fanout] children per node to [depth]
   levels; each node's role depends (monitored) on its parent's. *)
let build_tree world ~depth ~fanout =
  let counter = ref 0 in
  let rec spawn_children parent level acc =
    if level > depth then acc
    else
      List.concat_map
        (fun _ ->
          incr counter;
          let name = Printf.sprintf "t%d" !counter in
          let service =
            Service.create world ~name ~policy:(Printf.sprintf "role <- *role@%s;" parent) ()
          in
          (name, service, level) :: spawn_children name (level + 1) [])
        (List.init fanout Fun.id)
      @ acc
  in
  let root = Service.create world ~name:"troot" ~policy:"initial role <- env:eq(1, 1);" () in
  ("troot", root, 0) :: spawn_children "troot" 1 []

let activate_tree world nodes p =
  let session = Principal.start_session p in
  let sorted = List.stable_sort (fun (_, _, l1) (_, _, l2) -> compare l1 l2) nodes in
  World.run_proc world (fun () ->
      List.iter
        (fun (_, service, _) -> ignore (ok (Principal.activate p session service ~role:"role" ())))
        sorted);
  session

let tree_alive nodes =
  List.fold_left (fun acc (_, s, _) -> acc + List.length (Service.active_roles s)) 0 nodes

let e5 () =
  header "E5 (Fig. 5) Active security: revocation cascade";
  Printf.printf "  change-event monitoring; notification latency 1 ms per hop\n\n";
  Printf.printf "  %5s %6s %6s | %18s | %13s | %10s\n" "depth" "fanout" "roles"
    "collapse (virt ms)" "notifications" "net msgs";
  let cascade ~depth ~fanout =
    let world = World.create ~seed:5 ~net_latency:0.001 ~notify_latency:0.001 () in
    let nodes = build_tree world ~depth ~fanout in
    let p = Principal.create world ~name:"p" in
    let session = activate_tree world nodes p in
    let roles = tree_alive nodes in
    let notified_before = metric world "broker.notified" in
    let sent_before = metric world "net.sent" in
    let _, root, _ = List.find (fun (name, _, _) -> name = "troot") nodes in
    let root_rmc =
      List.find
        (fun (r : Rmc.t) -> Ident.equal r.issuer (Service.id root))
        (Principal.session_rmcs session)
    in
    let t0 = World.now world in
    ignore (Service.revoke_certificate root root_rmc.Rmc.id ~reason:"cascade");
    (* Step until the tree is dead, recording the instant it happens. *)
    let engine = World.engine world in
    let rec drive () =
      if tree_alive nodes > 0 && Oasis_sim.Engine.step engine then drive ()
    in
    drive ();
    let dt = (World.now world -. t0) *. 1000.0 in
    World.settle world;
    Printf.printf "  %5d %6d %6d | %18.1f | %13d | %10d\n" depth fanout roles dt
      (metric world "broker.notified" - notified_before)
      (metric world "net.sent" - sent_before);
    assert (tree_alive nodes = 0)
  in
  List.iter
    (fun (d, f) -> cascade ~depth:d ~fanout:f)
    [ (1, 1); (2, 2); (3, 2); (4, 2); (2, 4); (6, 1); (10, 1) ];

  Printf.printf "\n  monitoring ablation: change events vs heartbeats (chain depth 4)\n";
  Printf.printf "  %-22s | %18s | %17s\n" "mode" "collapse (virt s)" "events over 60 s";
  let ablation monitoring label =
    let world = World.create ~seed:6 ~net_latency:0.001 ~notify_latency:0.001 ~monitoring () in
    let services = build_chain world 4 in
    let p = Principal.create world ~name:"p" in
    let session = Principal.start_session p in
    World.run_proc world (fun () ->
        for i = 0 to 4 do
          ignore (ok (Principal.activate p session services.(i) ~role:(Printf.sprintf "r%d" i) ()))
        done);
    let published_before = metric world "broker.published" in
    World.run_until world (World.now world +. 60.0);
    let steady = metric world "broker.published" - published_before in
    let root_rmc = List.find (fun (r : Rmc.t) -> r.role = "r0") (Principal.session_rmcs session) in
    let t0 = World.now world in
    ignore (Service.revoke_certificate services.(0) root_rmc.Rmc.id ~reason:"x");
    let rec until_dead limit =
      if limit <= 0 then ()
      else if Array.for_all (fun s -> List.length (Service.active_roles s) = 0) services then ()
      else begin
        World.run_until world (World.now world +. 0.25);
        until_dead (limit - 1)
      end
    in
    until_dead 400;
    let collapse = World.now world -. t0 in
    Printf.printf "  %-22s | %18.2f | %17d\n" label collapse steady
  in
  ablation World.Change_events "change events";
  ablation (World.Heartbeats { period = 1.0; deadline = 2.5 }) "heartbeats 1s/2.5s";
  ablation (World.Heartbeats { period = 5.0; deadline = 12.5 }) "heartbeats 5s/12.5s"

(* ------------------------------------------------------------------ *)
(* E6 — administrative scalability vs baselines                        *)
(* ------------------------------------------------------------------ *)

let e6 () =
  header "E6 Administrative cost: OASIS appointments vs RBAC96 vs ACLs";
  Printf.printf
    "  Workload: N staff join; each may access O objects; 10%% of staff leave.\n\
    \  Counting administrative state-changing operations (Sect. 1's claim).\n\n";
  Printf.printf "  %8s %8s | %12s | %12s | %12s\n" "staff" "objects" "ACL ops" "RBAC96 ops"
    "OASIS certs";
  List.iter
    (fun (n, objects) ->
      let leavers = max 1 (n / 10) in
      let names = Array.init objects (fun o -> Printf.sprintf "obj%d" (o + 1)) in
      let acl = Acl.create () in
      Array.iter (Acl.add_object acl) names;
      for u = 1 to n do
        let principal = Ident.make "u" u in
        Array.iter (fun obj -> Acl.grant acl ~principal ~obj ~operation:"read") names
      done;
      for u = 1 to leavers do
        ignore (Acl.offboard acl (Ident.make "u" u))
      done;
      let rbac = Rbac96.create () in
      Rbac96.add_role rbac "staff";
      Array.iter
        (fun target -> Rbac96.grant_permission rbac "staff" { Rbac96.operation = "read"; target })
        names;
      for u = 1 to n do
        Rbac96.add_user rbac (Ident.make "u" u);
        Rbac96.assign_user rbac (Ident.make "u" u) "staff"
      done;
      for u = 1 to leavers do
        Rbac96.deassign_user rbac (Ident.make "u" u) "staff"
      done;
      (* OASIS: one appointment per join, one revocation per leave; object
         policy is one authorization rule, not per-object state. *)
      let oasis_ops = n + leavers + 1 in
      Printf.printf "  %8d %8d | %12d | %12d | %12d\n" n objects (Acl.admin_ops acl)
        (Rbac96.admin_ops rbac) oasis_ops)
    [ (100, 50); (1000, 50); (1000, 200); (5000, 200) ];

  Printf.printf "\n  revocation blast radius: RBDM0 delegation chains vs appointments\n";
  Printf.printf "  %14s | %18s | %18s\n" "chain length" "RBDM0 torn down" "OASIS revocations";
  List.iter
    (fun len ->
      let rbac = Rbac96.create () in
      Rbac96.add_role rbac "doctor";
      for u = 0 to len do
        Rbac96.add_user rbac (Ident.make "u" u)
      done;
      Rbac96.assign_user rbac (Ident.make "u" 0) "doctor";
      let del = Delegation.create rbac ~max_depth:(len + 1) in
      for u = 0 to len - 1 do
        match
          Delegation.delegate del ~from_user:(Ident.make "u" u) ~to_user:(Ident.make "u" (u + 1))
            ~role:"doctor"
        with
        | Ok () -> ()
        | Error e -> failwith e
      done;
      let blast =
        Delegation.revoke del ~from_user:(Ident.make "u" 0) ~to_user:(Ident.make "u" 1)
          ~role:"doctor"
      in
      Printf.printf "  %14d | %18d | %18d\n" len blast 1)
    [ 1; 2; 4; 8; 16 ]

(* ------------------------------------------------------------------ *)
(* E7 — Sect. 5 scenarios: validation round trips                      *)
(* ------------------------------------------------------------------ *)

let e7 () =
  header "E7 (Sect. 5) Inter-domain scenarios: validation round trips";
  Printf.printf "  %-34s | %16s | %16s\n" "scenario" "callbacks (1st)" "callbacks (5th)";
  let visiting ~caching =
    let world = World.create ~seed:7 () in
    (* Both domains sign with the epoch HMAC: an offline-signed
       appointment verifies with no callback, and E7 counts callbacks. *)
    let home = Domain.create world ~name:"home" ~offline_sign:false () in
    let config = { Service.default_config with cache_remote_validation = caching } in
    let host =
      Service.create world ~name:"host" ~config
        ~policy:"initial visiting(u) <- *appt:employed(u)@home.civ;" ()
    in
    let doctor = Principal.create world ~name:"doc" in
    Principal.grant_appointment doctor
      (Civ.issue (Domain.civ home) ~kind:"employed"
         ~args:[ Value.Id (Principal.id doctor) ]
         ~holder:(Principal.id doctor) ~holder_key:(Principal.longterm_public doctor) ());
    World.settle world;
    let counts =
      List.init 5 (fun _ ->
          let before = (Service.stats host).Service.callbacks_out in
          World.run_proc world (fun () ->
              let s = Principal.start_session doctor in
              ignore (ok (Principal.activate doctor s host ~role:"visiting" ())));
          (Service.stats host).Service.callbacks_out - before)
    in
    (List.nth counts 0, List.nth counts 4)
  in
  let f1, f5 = visiting ~caching:false in
  Printf.printf "  %-34s | %16d | %16d\n" "visiting doctor, no cache" f1 f5;
  let c1, c5 = visiting ~caching:true in
  Printf.printf "  %-34s | %16d | %16d\n" "visiting doctor, cached" c1 c5;
  let world = World.create ~seed:8 () in
  let insurer = Domain.create world ~name:"ins" ~offline_sign:false () in
  let clinic = Service.create world ~name:"clinic" ~policy:"initial noop <- env:eq(1,1);" () in
  Service.add_rule clinic
    (Oasis_policy.Parser.Activation
       (Anonymity.member_role_rule ~scheme:"insured" ~civ_name:"ins.civ" ~role:"patient"));
  let member = Principal.create world ~name:"member" in
  let membership =
    Anonymity.enroll ~civ:(Domain.civ insurer) ~member ~scheme:"insured" ~expires_at:1e6
  in
  World.settle world;
  let before = (Service.stats clinic).Service.callbacks_out in
  World.run_proc world (fun () ->
      let s = Principal.start_session member in
      ignore (ok (Anonymity.activate_anonymously member s clinic ~role:"patient" membership)));
  Printf.printf "  %-34s | %16d | %16s\n" "anonymous member at clinic"
    ((Service.stats clinic).Service.callbacks_out - before)
    "-"

(* ------------------------------------------------------------------ *)
(* E8 — Sect. 6: trust despite a Byzantine minority                    *)
(* ------------------------------------------------------------------ *)

let e8 () =
  header "E8 (Sect. 6) Web of trust: accuracy vs Byzantine fraction";
  Printf.printf "  40 servers, 40 clients, 80 interactions/round, 40 rounds, threshold 0.5\n\n";
  Printf.printf "  %10s | %16s | %16s\n" "byzantine" "final accuracy" "first-round acc.";
  List.iter
    (fun frac ->
      let r =
        Simulation.run { Simulation.default_params with byzantine_fraction = frac; rounds = 40 }
      in
      let first = List.hd r.Simulation.per_round in
      Printf.printf "  %9.0f%% | %16.3f | %16.3f\n" (frac *. 100.0) r.Simulation.final_accuracy
        first.Simulation.accuracy)
    [ 0.0; 0.1; 0.2; 0.3; 0.4 ];
  Printf.printf "\n  collusion ring (20%% colluders, padding 3/round): discounting ablation\n";
  Printf.printf "  %-24s | %16s | %16s\n" "mode" "final accuracy" "rogue weight";
  List.iter
    (fun discounting ->
      let r =
        Simulation.run
          {
            Simulation.default_params with
            byzantine_fraction = 0.1;
            colluder_fraction = 0.2;
            colluder_padding = 3;
            rounds = 40;
            discounting;
          }
      in
      let last = List.nth r.Simulation.per_round (List.length r.Simulation.per_round - 1) in
      Printf.printf "  %-24s | %16.3f | %16.3f\n"
        (if discounting then "with discounting" else "without discounting")
        r.Simulation.final_accuracy last.Simulation.mean_rogue_weight)
    [ true; false ]

(* ------------------------------------------------------------------ *)
(* E9 — env churn: fact-change propagation cost via the tuple index     *)
(* ------------------------------------------------------------------ *)

(* `--smoke` shrinks every experiment that honours it to a single cheap
   iteration, so `make check` can prove the bench binary still runs without
   paying for a full measurement campaign. *)
let smoke_mode = ref false

let smoke_dir = Filename.concat "_build" "bench-smoke"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

(* The revision of the tree the binary runs in, with [-dirty] when it has
   uncommitted changes; "unknown" outside a git checkout. *)
let git_revision () =
  match Unix.open_process_in "git describe --always --dirty --abbrev=12 2>/dev/null" with
  | exception Unix.Unix_error _ -> "unknown"
  | ic ->
      let rev = try input_line ic with End_of_file -> "unknown" in
      ignore (Unix.close_process_in ic);
      rev

(* Writes one experiment's JSON result. A full run writes the committed
   [file] in the current directory; a smoke run only proves the emitter
   works, so it writes under _build/bench-smoke/ and never clobbers the
   committed numbers. Every file opens with the same provenance header —
   git revision on a line of its own, OCaml version and GC settings —
   and [emit] writes the experiment's own fields after it. *)
let write_result file emit =
  let path =
    if !smoke_mode then begin
      mkdir_p smoke_dir;
      Filename.concat smoke_dir file
    end
    else file
  in
  let out = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out out)
    (fun () ->
      let gc = Gc.get () in
      Printf.fprintf out
        "{\n\
        \  \"git_revision\": %S,\n\
        \  \"runtime\": { \"ocaml\": %S, \"gc_minor_heap_words\": %d, \"gc_space_overhead\": %d },\n"
        (git_revision ()) Sys.ocaml_version gc.Gc.minor_heap_size gc.Gc.space_overhead;
      emit out);
  Printf.printf "\n  results written to %s\n" path

(* The active-security hot path: every fact change must confront the
   membership conditions resting on it. The reverse index (predicate ->
   fact tuple -> watching RMCs) makes the cost of a change the watchers of
   the changed ground tuple, whatever else watches its predicate. This
   experiment drives N services sharing one
   environment database and M active roles in total, all watching the
   predicate "hot": a fixed set watches the shared tuple hot(0), the rest
   one tuple each. It flips sentinel tuples (assert + retract of a tuple
   nobody watches) on "hot" and on the unwatched "idle", then flips the
   watched tuple hot(0) (retract, which collapses its watchers, and
   re-assert), re-activating the watchers between flips outside the timed
   region. It records the RMC membership re-checks and the CPU time into
   BENCH_active_security.json. *)
let e9 () =
  header "E9 Active security: env-churn fact-change propagation (tuple index)";
  let smoke = !smoke_mode in
  let services_n = 4 in
  let hot_watchers = if smoke then 2 else 8 in
  let flips = if smoke then 1 else 2000 in
  let watched_flips = if smoke then 1 else 200 in
  let sizes = if smoke then [ 16 ] else [ 100; 400; 1600 ] in
  let churn_policy = "initial hotrole(u) <- *env:hot(u);" in
  let shared = [ Value.Int 0 ] in
  let run_config ~total =
    let world = World.create ~seed:9 () in
    let env = Env.create (Oasis_sim.Engine.clock (World.engine world)) in
    Env.declare_fact env "hot";
    Env.declare_fact env "idle";
    let services =
      Array.init services_n (fun i ->
          Service.create world ~name:(Printf.sprintf "churn%d" i) ~env ~policy:churn_policy ())
    in
    let p = Principal.create world ~name:"p" in
    let new_session () = World.run_proc world (fun () -> Principal.start_session p) in
    (* Watcher [i] watches hot(0) when it is one of the shared tuple's
       watchers, hot(i) otherwise. *)
    let activate session i =
      let svc = services.(i mod services_n) in
      let arg = if i < hot_watchers then Value.Int 0 else Value.Int i in
      Env.assert_fact env "hot" [ arg ];
      World.run_proc world (fun () ->
          ignore (ok (Principal.activate p session svc ~role:"hotrole" ~args:[ Some arg ] ())))
    in
    let session = new_session () in
    for i = 0 to total - 1 do
      activate session i
    done;
    let active () =
      Array.fold_left (fun acc s -> acc + List.length (Service.active_roles s)) 0 services
    in
    let count f = Array.fold_left (fun acc s -> acc + f s) 0 services in
    assert (active () = total);
    assert (count (fun s -> Service.env_watcher_count s "hot") = total);
    (* The reported counts come from the shared Obs registry; [Service.stats]
       reads the same counter, so the two must agree exactly — any drift
       means a module bypassed the registry. *)
    let rechecks () =
      let sum = ref 0 in
      Array.iteri
        (fun i s ->
          let from_registry =
            metric world (Printf.sprintf "service.env_rechecks{service=churn%d}" i)
          in
          assert (from_registry = (Service.stats s).Service.env_rechecks);
          sum := !sum + from_registry)
        services;
      !sum
    in
    (* A sentinel tuple matches no watcher's ground constraint: every change
       notification reaches the services but deactivates nothing, so the
       same population is re-measured across predicates. *)
    let measure_sentinel pred =
      let before = rechecks () in
      let t0 = Sys.time () in
      for _ = 1 to flips do
        Env.assert_fact env pred [ Value.Int (-1) ];
        Env.retract_fact env pred [ Value.Int (-1) ]
      done;
      let seconds = Sys.time () -. t0 in
      (rechecks () - before, seconds)
    in
    let idle_rechecks, idle_s = measure_sentinel "idle" in
    let sentinel_rechecks, sentinel_s = measure_sentinel "hot" in
    assert (active () = total);
    (* The watched tuple: the retraction re-checks and collapses exactly its
       watchers, the re-assertion finds nobody watching. *)
    let watched_before = rechecks () in
    let watched_s = ref 0.0 in
    for _ = 1 to watched_flips do
      assert (count (fun s -> Service.env_watcher_count_tuple s "hot" shared) = hot_watchers);
      let t0 = Sys.time () in
      Env.retract_fact env "hot" shared;
      Env.assert_fact env "hot" shared;
      watched_s := !watched_s +. (Sys.time () -. t0);
      assert (active () = total - hot_watchers);
      (* A fresh session keeps the re-activations' wallets small. *)
      let session = new_session () in
      for i = 0 to hot_watchers - 1 do
        activate session i
      done
    done;
    let watched_rechecks = rechecks () - watched_before in
    (* The claim, enforced: a change costs the watchers of its tuple, so
       sentinels cost nothing even on a predicate all M roles watch. *)
    assert (idle_rechecks = 0);
    assert (sentinel_rechecks = 0);
    assert (watched_rechecks = watched_flips * hot_watchers);
    (idle_rechecks, idle_s, sentinel_rechecks, sentinel_s, watched_rechecks, !watched_s)
  in
  Printf.printf
    "  %d services share one env; every role watches 'hot', %d of them hot(0);\n\
    \  %d sentinel flips per predicate, %d flips of hot(0)\n\n"
    services_n hot_watchers flips watched_flips;
  Printf.printf "  %6s | %10s | %8s | %14s | %8s | %13s | %9s\n" "roles" "idle rechk" "idle s"
    "hot sentinel" "hot s" "hot(0) rechk" "hot(0) s";
  let rows =
    List.map
      (fun total ->
        let idle_rechecks, idle_s, sentinel_rechecks, sentinel_s, watched_rechecks, watched_s =
          run_config ~total
        in
        Printf.printf "  %6d | %10d | %8.4f | %14d | %8.4f | %13d | %9.4f\n" total idle_rechecks
          idle_s sentinel_rechecks sentinel_s watched_rechecks watched_s;
        Printf.sprintf
          "    { \"total_active_rmcs\": %d, \"idle_rechecks\": %d, \"idle_seconds\": %.6f,\n\
          \      \"hot_sentinel_rechecks\": %d, \"hot_sentinel_seconds\": %.6f,\n\
          \      \"watched_tuple_rechecks\": %d, \"watched_tuple_seconds\": %.6f }"
          total idle_rechecks idle_s sentinel_rechecks sentinel_s watched_rechecks watched_s)
      sizes
  in
  write_result "BENCH_active_security.json" (fun out ->
    Printf.fprintf out
      "\
      \  \"benchmark\": \"env_churn_active_security\",\n\
      \  \"generated_by\": \"dune exec bench/main.exe -- E9%s\",\n\
      \  \"params\": { \"services\": %d, \"hot_watchers\": %d, \"flips\": %d, \"watched_flips\": %d, \"smoke\": %b },\n\
      \  \"claim\": \"fact-change propagation cost is the watchers of the changed ground tuple, not the watchers of its predicate nor the total active RMCs\",\n\
      \  \"rows\": [\n%s\n  ]\n}\n"
      (if smoke then " --smoke" else "")
      services_n hot_watchers flips watched_flips smoke
      (String.concat ",\n" rows))

(* ------------------------------------------------------------------ *)
(* E11 — the trace pipeline: Fig. 5 causal order and tracing overhead  *)
(* ------------------------------------------------------------------ *)

(* One service with a monitored env watch; a principal holds the role.
   The measured loop flips a sentinel tuple of the watched predicate so
   every flip pays the env-change notification and index lookup (and, when
   a sink is attached, event emission) without re-checking or deactivating
   anything; the final
   retraction of the real fact drives the Fig. 5 path env.change ->
   svc.recheck -> svc.revoke, which must appear in the trace in causal
   (seq) order. Results go to BENCH_trace.json. *)
let e11 () =
  header "E11 Observability: Fig. 5 cascade in the trace, tracing overhead";
  let smoke = !smoke_mode in
  let flips = if smoke then 50 else 20000 in
  let run ~traced =
    let world = World.create ~seed:11 () in
    let capture =
      if traced then begin
        let sink, captured = Obs.memory_sink () in
        Obs.attach (World.obs world) sink;
        captured
      end
      else fun () -> []
    in
    let svc =
      Service.create world ~name:"ward" ~policy:"initial on_duty(u) <- *env:rostered(u);" ()
    in
    let env = Service.env svc in
    Env.declare_fact env "rostered";
    let p = Principal.create world ~name:"p" in
    World.run_proc world (fun () ->
        let session = Principal.start_session p in
        Env.assert_fact env "rostered" [ Value.Int 0 ];
        ignore (ok (Principal.activate p session svc ~role:"on_duty" ~args:[ Some (Value.Int 0) ] ())));
    assert (List.length (Service.active_roles svc) = 1);
    let t0 = Sys.time () in
    for i = 1 to flips do
      Env.assert_fact env "rostered" [ Value.Int (-i) ];
      Env.retract_fact env "rostered" [ Value.Int (-i) ]
    done;
    let churn_s = Sys.time () -. t0 in
    Env.retract_fact env "rostered" [ Value.Int 0 ];
    World.settle world;
    assert (List.length (Service.active_roles svc) = 0);
    (churn_s, capture ())
  in
  let null_s, null_events = run ~traced:false in
  let sink_s, events = run ~traced:true in
  assert (null_events = []);
  (* The cascade, in causal order: the revocation's seq must be preceded by
     a recheck, itself preceded by the env change that caused it. *)
  let seq_of_first name =
    match List.find_opt (fun (e : Obs.event) -> String.equal e.Obs.name name) events with
    | Some e -> e.Obs.seq
    | None -> failwith ("E11: no " ^ name ^ " event in the trace")
  in
  let revoke_seq = seq_of_first "svc.revoke" in
  let last_before name limit =
    List.fold_left
      (fun acc (e : Obs.event) ->
        if String.equal e.Obs.name name && e.Obs.seq < limit then Some e.Obs.seq else acc)
      None events
  in
  let recheck_seq =
    match last_before "svc.recheck" revoke_seq with
    | Some s -> s
    | None -> failwith "E11: no svc.recheck before the revocation"
  in
  let change_seq =
    match last_before "env.change" recheck_seq with
    | Some s -> s
    | None -> failwith "E11: no env.change before the recheck"
  in
  assert (change_seq < recheck_seq && recheck_seq < revoke_seq);
  let count name =
    List.length (List.filter (fun (e : Obs.event) -> String.equal e.Obs.name name) events)
  in
  Printf.printf "  causal order OK: env.change #%d -> svc.recheck #%d -> svc.revoke #%d\n\n"
    change_seq recheck_seq revoke_seq;
  Printf.printf "  %-12s | %8s | %12s | %14s\n" "mode" "events" "churn s" "us per flip";
  let row mode events_n seconds =
    Printf.printf "  %-12s | %8d | %12.4f | %14.3f\n" mode events_n seconds
      (seconds /. float_of_int flips *. 1e6)
  in
  row "null" 0 null_s;
  row "memory-sink" (List.length events) sink_s;
  write_result "BENCH_trace.json" (fun out ->
    Printf.fprintf out
      "\
      \  \"benchmark\": \"trace_pipeline\",\n\
      \  \"generated_by\": \"dune exec bench/main.exe -- E11%s\",\n\
      \  \"params\": { \"flips\": %d, \"smoke\": %b },\n\
      \  \"claim\": \"the Fig. 5 cascade appears in the trace in causal order; tracing without a sink costs one branch per event site\",\n\
      \  \"causal_order\": { \"env_change_seq\": %d, \"recheck_seq\": %d, \"revoke_seq\": %d },\n\
      \  \"event_counts\": { \"env_change\": %d, \"svc_recheck\": %d, \"svc_revoke\": %d, \"total\": %d },\n\
      \  \"rows\": [\n\
      \    { \"mode\": \"null\", \"events\": 0, \"churn_seconds\": %.6f },\n\
      \    { \"mode\": \"memory_sink\", \"events\": %d, \"churn_seconds\": %.6f }\n\
      \  ]\n}\n"
      (if smoke then " --smoke" else "")
      flips smoke change_seq recheck_seq revoke_seq (count "env.change") (count "svc.recheck")
      (count "svc.revoke") (List.length events) null_s (List.length events) sink_s)

(* ------------------------------------------------------------------ *)
(* E12 — fault tolerance: re-validation storms and propagation latency *)
(* ------------------------------------------------------------------ *)

(* Two measurements into BENCH_fault.json (DESIGN.md §11):

   (a) the post-heal re-validation storm: N roles at one relying service go
       suspect behind a partition; on heal, anti-entropy reconciliation
       re-validates all of them against the issuer. The bounded worker pool
       ([reconcile_batch]) is compared with the naive configuration (batch =
       N, every suspect polls concurrently) on wasted retries and dropped
       packets while partitioned, completed status RPCs, and virtual drain
       time after the heal.

   (b) revocation-propagation latency: virtual seconds from revocation at
       the issuer to deactivation at the relying service, across monitoring
       disciplines and partition timings — including the never-healed case,
       where fail-closed degradation bounds the latency at
       detection-deadline + grace with no connectivity at all. *)
let e12 () =
  header "E12 Fault tolerance: reconciliation storms, revocation latency under partition";
  let smoke = !smoke_mode in
  let n_roles = if smoke then 8 else 64 in
  let retry = { Backoff.default with base = 0.02; cap = 0.2; max_attempts = 4 } in
  (* The issuer signs with the epoch HMAC: the validation callback and the
     heartbeat machinery are under measurement, and an offline-verifiable
     issuer would have its certificates checked without either. *)
  let hmac_issuer = { Service.default_config with offline_sign = false } in

  (* -------- (a) the storm -------- *)
  let storm ~batch =
    let world = World.create ~seed:12 () in
    let issuer =
      Service.create world ~name:"issuer" ~config:hmac_issuer
        ~policy:"initial base(u) <- env:enrolled(u);" ()
    in
    Env.declare_fact (Service.env issuer) "enrolled";
    let config =
      {
        Service.default_config with
        retry;
        (* long grace: resolution must come from reconciliation, not the
           fail-closed timer, so drain time measures the worker pool *)
        suspect_grace = 120.0;
        reconcile_batch = batch;
      }
    in
    let relying =
      Service.create world ~name:"relying" ~config ~policy:"derived(u) <- *base(u)@issuer;" ()
    in
    for i = 0 to n_roles - 1 do
      let p = Principal.create world ~name:(Printf.sprintf "p%d" i) in
      Env.assert_fact (Service.env issuer) "enrolled" [ Value.Int i ];
      World.run_proc world (fun () ->
          let s = Principal.start_session p in
          ignore
            (ok (Principal.activate p s issuer ~role:"base" ~args:[ Some (Value.Int i) ] ()));
          ignore
            (ok (Principal.activate p s relying ~role:"derived" ~args:[ Some (Value.Int i) ] ())))
    done;
    assert (List.length (Service.active_roles relying) = n_roles);
    Fault.partition (World.fault world) ~name:"wan" [ Service.id relying ] [ Service.id issuer ];
    (* One exhausted validation callback is the failure detector: it marks
       every role depending on the unreachable issuer suspect. *)
    let q = Principal.create world ~name:"q" in
    Env.assert_fact (Service.env issuer) "enrolled" [ Value.Int 999 ];
    World.run_proc world (fun () ->
        let s = Principal.start_session q in
        ignore (ok (Principal.activate q s issuer ~role:"base" ~args:[ Some (Value.Int 999) ] ()));
        match Principal.activate q s relying ~role:"derived" ~args:[ Some (Value.Int 999) ] () with
        | Ok _ -> failwith "E12: derived granted across a partition"
        | Error _ -> ());
    assert (List.length (Service.suspect_roles relying) = n_roles);
    (* Let the pollers hammer the dead link for a fixed window, then heal. *)
    World.run_until world (World.now world +. 2.0);
    let wasted_retries = metric world "rpc.retries{site=reconcile}" in
    let wasted_drops = metric world "net.dropped{cause=partitioned}" in
    let rpcs_before = metric world "net.rpcs" in
    Fault.heal (World.fault world) "wan";
    let healed_at = World.now world in
    let deadline = healed_at +. 60.0 in
    while Service.suspect_roles relying <> [] && World.now world < deadline do
      World.run_until world (World.now world +. 0.05)
    done;
    assert (Service.suspect_roles relying = []);
    assert ((Service.stats relying).Service.reconciled_reinstated = n_roles);
    let drain_s = World.now world -. healed_at in
    let status_rpcs = metric world "net.rpcs" - rpcs_before in
    (wasted_retries, wasted_drops, status_rpcs, drain_s)
  in

  Printf.printf "  (a) %d suspect roles reconcile after a heal\n\n" n_roles;
  Printf.printf "  %-14s | %14s | %13s | %11s | %9s\n" "mode" "wasted retries"
    "wasted drops" "status rpcs" "drain s";
  let storm_rows =
    List.map
      (fun (mode, batch) ->
        let wasted_retries, wasted_drops, status_rpcs, drain_s = storm ~batch in
        Printf.printf "  %-14s | %14d | %13d | %11d | %9.3f\n" mode wasted_retries
          wasted_drops status_rpcs drain_s;
        Printf.sprintf
          "    { \"mode\": %S, \"batch\": %d, \"suspects\": %d, \"wasted_retries\": %d,\n\
          \      \"wasted_drops\": %d, \"status_rpcs\": %d, \"drain_seconds\": %.4f }"
          mode batch n_roles wasted_retries wasted_drops status_rpcs drain_s)
      [ ("batched", Service.default_config.Service.reconcile_batch); ("naive", n_roles) ]
  in

  (* -------- (b) revocation-propagation latency -------- *)
  let period = 0.5 and hb_deadline = 1.5 and grace = 2.0 in
  let latency ~monitoring ~partitioned ~heal_after =
    let world = World.create ~seed:12 ?monitoring () in
    let issuer =
      Service.create world ~name:"issuer" ~config:hmac_issuer
        ~policy:"initial base <- env:eq(1, 1);" ()
    in
    let config =
      { Service.default_config with retry; suspect_grace = grace; reconcile_batch = 8 }
    in
    let relying =
      Service.create world ~name:"relying" ~config ~policy:"derived <- *base@issuer;" ()
    in
    let p = Principal.create world ~name:"p" in
    let base, derived =
      World.run_proc world (fun () ->
          let s = Principal.start_session p in
          let base = ok (Principal.activate p s issuer ~role:"base" ()) in
          let derived = ok (Principal.activate p s relying ~role:"derived" ()) in
          (base, derived))
    in
    World.run_until world 1.0;
    if partitioned then
      Fault.partition (World.fault world) ~name:"wan" [ Service.id relying ]
        [ Service.id issuer ];
    let revoked_at = World.now world in
    ignore (Service.revoke_certificate issuer base.Rmc.id ~reason:"E12");
    (match heal_after with
    | Some d ->
        World.run_until world (revoked_at +. d);
        Fault.heal (World.fault world) "wan"
    | None -> ());
    let limit = revoked_at +. 30.0 in
    while
      Service.is_valid_certificate relying derived.Rmc.id && World.now world < limit
    do
      World.run_until world (World.now world +. 0.01)
    done;
    assert (not (Service.is_valid_certificate relying derived.Rmc.id));
    World.now world -. revoked_at
  in
  let hb = Some (World.Heartbeats { period; deadline = hb_deadline }) in
  let cases =
    [
      ("change-events, connected", None, false, None);
      ("heartbeats, connected", hb, false, None);
      ("heartbeats, heal after 0.5", hb, true, Some 0.5);
      ("heartbeats, heal after 1.5", hb, true, Some 1.5);
      ("heartbeats, never healed", hb, true, None);
    ]
  in
  Printf.printf "\n  (b) revocation -> deactivation latency (virtual s); deadline %.1f, grace %.1f\n\n"
    hb_deadline grace;
  Printf.printf "  %-28s | %10s\n" "case" "latency s";
  let latency_rows =
    List.map
      (fun (case, monitoring, partitioned, heal_after) ->
        let l = latency ~monitoring ~partitioned ~heal_after in
        Printf.printf "  %-28s | %10.3f\n" case l;
        Printf.sprintf "    { \"case\": %S, \"latency_seconds\": %.4f }" case l)
      cases
  in
  write_result "BENCH_fault.json" (fun out ->
    Printf.fprintf out
      "\
      \  \"benchmark\": \"fault_tolerance\",\n\
      \  \"generated_by\": \"dune exec bench/main.exe -- E12%s\",\n\
      \  \"params\": { \"roles\": %d, \"heartbeat_period\": %.2f, \"heartbeat_deadline\": %.2f,\n\
      \             \"suspect_grace\": %.2f, \"smoke\": %b },\n\
      \  \"claim\": \"bounded reconciliation batches tame the post-heal re-validation storm; fail-closed degradation bounds revocation propagation even without connectivity\",\n\
      \  \"storm_rows\": [\n%s\n  ],\n\
      \  \"latency_rows\": [\n%s\n  ]\n}\n"
      (if smoke then " --smoke" else "")
      n_roles period hb_deadline grace smoke
      (String.concat ",\n" storm_rows)
      (String.concat ",\n" latency_rows))

(* ------------------------------------------------------------------ *)
(* E13 — offline-verifiable signed credentials: RPCs and latency       *)
(* ------------------------------------------------------------------ *)

(* Two workloads into BENCH_signed.json (DESIGN.md §12), each run with the
   CIV and the services signing offline (Schnorr) and with the epoch HMAC;
   relying services verify offline exactly when the issuer has a chain:

   (a) the hospital shape: one CIV domain, principals holding employee and
       qualification appointments log in and step up to doctor — the paper's
       running example, two cross-domain credential checks per principal;

   (b) a synthetic cross-domain storm: many relying services all gated on
       appointments from one CIV, every principal activating at every
       service — the validation traffic the paper says certificates should
       absorb ("validation ... without reference to the issuing service").

   Reported per mode: validation callbacks made by relying services, RPCs
   served by the CIV cluster, local offline verifications, and virtual-time
   activation latency. The claim under test: offline verification drives
   the cross-domain validation RPC count to zero without costing latency
   (signature checks are compute, not round trips). *)
let e13 () =
  header "E13 Signed credentials: zero-RPC validation vs callback validation";
  let smoke = !smoke_mode in
  let n_principals = if smoke then 4 else 40 in
  let n_services = if smoke then 3 else 12 in

  let hospital ~offline =
    let world = World.create ~seed:13 () in
    let civ = Civ.create world ~name:"civ" ~offline_sign:offline () in
    let config = { Service.default_config with Service.offline_sign = offline } in
    let hospital =
      Service.create world ~name:"hospital" ~config
        ~policy:
          {|
            initial logged_in(u) <- *appt:employee(u)@civ ;
            doctor(u) <- *logged_in(u), *appt:qualified(u)@civ ;
          |}
        ()
    in
    let latency = ref 0.0 in
    for i = 0 to n_principals - 1 do
      let p = Principal.create world ~name:(Printf.sprintf "p%d" i) in
      List.iter
        (fun kind ->
          let appt =
            Civ.issue civ ~kind
              ~args:[ Value.Id (Principal.id p) ]
              ~holder:(Principal.id p) ~holder_key:(Principal.longterm_public p) ()
          in
          Principal.grant_appointment p appt)
        [ "employee"; "qualified" ];
      World.settle world;
      let t0 = World.now world in
      World.run_proc world (fun () ->
          let s = Principal.start_session p in
          ignore (ok (Principal.activate p s hospital ~role:"logged_in" ()));
          ignore (ok (Principal.activate p s hospital ~role:"doctor" ())));
      World.settle world;
      latency := !latency +. (World.now world -. t0)
    done;
    let st = Service.stats hospital in
    let civ_rpcs = Array.fold_left ( + ) 0 (Civ.stats civ).Civ.validations_served in
    ( st.Service.callbacks_out,
      civ_rpcs,
      st.Service.offline_validations,
      !latency /. float_of_int n_principals )
  in

  let storm ~offline =
    let world = World.create ~seed:13 () in
    let civ = Civ.create world ~name:"civ" ~offline_sign:offline () in
    let config = { Service.default_config with Service.offline_sign = offline } in
    let services =
      Array.init n_services (fun i ->
          Service.create world ~name:(Printf.sprintf "svc%d" i) ~config
            ~policy:"initial member(u) <- *appt:badge(u)@civ ;" ())
    in
    let latency = ref 0.0 and activations = ref 0 in
    for i = 0 to n_principals - 1 do
      let p = Principal.create world ~name:(Printf.sprintf "p%d" i) in
      let appt =
        Civ.issue civ ~kind:"badge"
          ~args:[ Value.Id (Principal.id p) ]
          ~holder:(Principal.id p) ~holder_key:(Principal.longterm_public p) ()
      in
      Principal.grant_appointment p appt;
      World.settle world;
      let t0 = World.now world in
      World.run_proc world (fun () ->
          let s = Principal.start_session p in
          Array.iter
            (fun svc ->
              incr activations;
              ignore (ok (Principal.activate p s svc ~role:"member" ())))
            services);
      World.settle world;
      latency := !latency +. (World.now world -. t0)
    done;
    let callbacks =
      Array.fold_left (fun acc svc -> acc + (Service.stats svc).Service.callbacks_out) 0 services
    in
    let offline_checks =
      Array.fold_left
        (fun acc svc -> acc + (Service.stats svc).Service.offline_validations)
        0 services
    in
    let civ_rpcs = Array.fold_left ( + ) 0 (Civ.stats civ).Civ.validations_served in
    (callbacks, civ_rpcs, offline_checks, !latency /. float_of_int !activations)
  in

  Printf.printf "  %d principals; storm fan-out %d services\n\n" n_principals n_services;
  Printf.printf "  %-10s %-8s | %13s | %9s | %14s | %12s\n" "scenario" "mode" "callbacks out"
    "civ rpcs" "offline checks" "latency s";
  let rows =
    List.concat_map
      (fun (scenario, run) ->
        List.map
          (fun offline ->
            let callbacks, civ_rpcs, offline_checks, mean_latency = run ~offline in
            let mode = if offline then "offline" else "legacy" in
            Printf.printf "  %-10s %-8s | %13d | %9d | %14d | %12.4f\n" scenario mode callbacks
              civ_rpcs offline_checks mean_latency;
            if offline && callbacks > 0 then
              failwith "E13: offline mode still made validation callbacks";
            Printf.sprintf
              "    { \"scenario\": %S, \"mode\": %S, \"validation_callbacks\": %d,\n\
              \      \"civ_validation_rpcs\": %d, \"offline_validations\": %d,\n\
              \      \"mean_activation_latency_s\": %.6f }"
              scenario mode callbacks civ_rpcs offline_checks mean_latency)
          [ false; true ])
      [ ("hospital", hospital); ("storm", storm) ]
  in
  write_result "BENCH_signed.json" (fun out ->
    Printf.fprintf out
      "\
      \  \"benchmark\": \"signed_credentials\",\n\
      \  \"generated_by\": \"dune exec bench/main.exe -- E13%s\",\n\
      \  \"params\": { \"principals\": %d, \"storm_services\": %d, \"smoke\": %b },\n\
      \  \"claim\": \"offline-verifiable signed credentials drive cross-domain validation RPCs to zero at no latency cost; freshness machinery is unchanged\",\n\
      \  \"rows\": [\n%s\n  ]\n}\n"
      (if smoke then " --smoke" else "")
      n_principals n_services smoke
      (String.concat ",\n" rows))

(* ------------------------------------------------------------------ *)
(* E15 — engine/storage scale curve (DESIGN.md §14)                    *)
(* ------------------------------------------------------------------ *)

(* Reads an integer field (in kB) out of /proc/self/status; 0 when the
   field or the file is unavailable (non-Linux). *)
let proc_status_kb field =
  match open_in "/proc/self/status" with
  | exception _ -> 0
  | ic ->
      let prefix = field ^ ":" in
      let plen = String.length prefix in
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0
        | line when String.length line > plen && String.sub line 0 plen = prefix ->
            let rest = String.sub line plen (String.length line - plen) in
            (try Scanf.sscanf rest " %d" (fun kb -> kb) with _ -> 0)
        | _ -> scan ()
      in
      let kb = scan () in
      close_in ic;
      kb

(* The scale curve behind the leak fixes (heap slot clearing, tombstone
   compaction, O(1)-allocation broker fan-out, sharded credential stores):
   one full-stack world per session count N —

     enrol N principals with CIV badge appointments, activate all N at a
     relying service (wall-clocked -> activations/sec), run a heartbeat
     period of steady state, revoke sampled badges and drive each cascade
     to the dependent role's collapse (wall + virtual latency), then log
     out 90% of sessions in one storm and assert the physical heap is
     O(live timers) — the acceptance check that cancelled heartbeat
     emitters/monitors do not accumulate as tombstones.

   A separate engine-only section churns 10^6 schedule/cancel pairs to
   place the timer core itself on the curve without per-activation
   crypto dominating. Results go to BENCH_scale.json. *)
let e15 () =
  header "E15 Scale: throughput, cascade latency and memory, 10^3 to 10^6";
  let smoke = !smoke_mode in
  let counts = if smoke then [ 64; 256 ] else [ 1_000; 5_000; 20_000; 100_000 ] in
  let cascade_samples = if smoke then 4 else 32 in
  let heartbeat_period = 30.0 in

  let session_row n =
    let world =
      World.create ~seed:15
        ~monitoring:(World.Heartbeats { period = heartbeat_period; deadline = 3.0 *. heartbeat_period })
        ()
    in
    let civ = Civ.create world ~name:"civ" () in
    let svc =
      Service.create world ~name:"gate" ~policy:"initial member(u) <- *appt:badge(u)@civ ;" ()
    in
    let principals =
      Array.init n (fun i ->
          let p = Principal.create world ~name:(Printf.sprintf "p%d" i) in
          let appt =
            Civ.issue civ ~kind:"badge"
              ~args:[ Value.Id (Principal.id p) ]
              ~holder:(Principal.id p) ~holder_key:(Principal.longterm_public p) ()
          in
          Principal.grant_appointment p appt;
          (p, appt))
    in
    World.settle world;
    (* Activation storm, wall-clocked. *)
    let t0 = Unix.gettimeofday () in
    let sessions =
      Array.map
        (fun (p, _) ->
          World.run_proc world (fun () ->
              let s = Principal.start_session p in
              let rmc = ok (Principal.activate p s svc ~role:"member" ()) in
              (s, rmc)))
        principals
    in
    World.settle world;
    let activation_wall = Unix.gettimeofday () -. t0 in
    let rate = float_of_int n /. activation_wall in
    (* Steady state: one full heartbeat period, counted in engine events
       (one beat per issuer, however many sessions) and wall-clocked as
       engine events/sec. *)
    let engine = World.engine world in
    let exec0 = Oasis_sim.Engine.events_executed engine in
    let t0 = Unix.gettimeofday () in
    World.run_until world (World.now world +. heartbeat_period);
    let sustain_wall = Unix.gettimeofday () -. t0 in
    let steady_events = Oasis_sim.Engine.events_executed engine - exec0 in
    let sustained_events = float_of_int steady_events /. sustain_wall in
    let peak_rss_kb = proc_status_kb "VmHWM" in
    let rss_kb = proc_status_kb "VmRSS" in
    (* Revocation cascades: revoke the sampled badges at the CIV in one
       batch, then step until every dependent role at the gate has
       collapsed. In heartbeat mode the CIV's next beat names them, so the
       virtual latency sits within one period regardless of N — the
       flatness claim; the wall cost is amortized over the batch. *)
    let stride = max 1 (n / cascade_samples) in
    let victims = Array.init (min cascade_samples n) (fun k -> k * stride) in
    let n_victims = Array.length victims in
    let v0 = World.now world in
    let t0 = Unix.gettimeofday () in
    Array.iter
      (fun i ->
        let _, appt = principals.(i) in
        ignore (Civ.revoke civ appt.Oasis_cert.Appointment.id ~reason:"scale-cascade"))
      victims;
    let all_collapsed () =
      Array.for_all
        (fun i ->
          let _, rmc = sessions.(i) in
          not (Service.is_valid_certificate svc rmc.Rmc.id))
        victims
    in
    (* Drive in one-virtual-second chunks: validity is re-checked at most
       a period's worth of times, not once per engine event. *)
    let rec drive limit =
      if limit > 0 && not (all_collapsed ()) then begin
        World.run_until world (World.now world +. 1.0);
        drive (limit - 1)
      end
    in
    drive 400;
    if not (all_collapsed ()) then failwith "E15: sampled cascades did not collapse";
    let cascade_wall_us = (Unix.gettimeofday () -. t0) *. 1e6 /. float_of_int n_victims in
    let cascade_virtual_ms = (World.now world -. v0) *. 1e3 in
    (* Cancel storm: 90% of the surviving sessions log out at once. Every
       logout takes its role's registration off the gate's one monitor of
       the CIV and cancels whatever timers the role held; the physical
       heap must end O(live timers), not O(total ever scheduled) — the
       tombstone-compaction acceptance assertion. *)
    let victim = Array.make n false in
    Array.iter (fun i -> victim.(i) <- true) victims;
    let t0 = Unix.gettimeofday () in
    World.run_proc world (fun () ->
        Array.iteri
          (fun i (p, _) ->
            if (not victim.(i)) && i mod 10 <> 0 then
              let s, _ = sessions.(i) in
              Principal.logout p s)
          principals);
    World.settle world;
    let storm_wall = Unix.gettimeofday () -. t0 in
    let pending = Oasis_sim.Engine.pending engine in
    let heap = Oasis_sim.Engine.heap_size engine in
    if heap > (2 * pending) + 256 then
      failwith
        (Printf.sprintf "E15: heap not O(live) after cancel storm: %d slots for %d pending" heap
           pending);
    Printf.printf
      "  %7d | %9.0f act/s | %9.0f ev/s | %7.1f us %6.1f ms | %6.1f MB | %8d/%-8d %5.2fs\n" n
      rate sustained_events cascade_wall_us cascade_virtual_ms
      (float_of_int rss_kb /. 1024.0)
      heap pending storm_wall;
    Printf.sprintf
      "    { \"sessions\": %d, \"activations_per_s\": %.0f, \"activation_wall_s\": %.3f,\n\
      \      \"steady_events_per_period\": %d, \"sustained_events_per_s\": %.0f,\n\
      \      \"cascade_wall_us\": %.1f, \"cascade_virtual_ms\": %.2f,\n\
      \      \"rss_mb\": %.1f, \"peak_rss_mb\": %.1f,\n\
      \      \"heap_after_storm\": %d, \"pending_after_storm\": %d }"
      n rate activation_wall steady_events sustained_events cascade_wall_us cascade_virtual_ms
      (float_of_int rss_kb /. 1024.0)
      (float_of_int peak_rss_kb /. 1024.0)
      heap pending
  in

  (* Engine-only churn: the timer core at 10^6 without crypto in the way.
     Schedule/cancel pairs in heartbeat-re-arm rhythm with a bounded live
     set; the heap must stay O(live) throughout. *)
  let timer_churn total =
    let engine = Oasis_sim.Engine.create () in
    let live = Queue.create () in
    let t0 = Unix.gettimeofday () in
    for i = 1 to total do
      let h =
        Oasis_sim.Engine.schedule engine ~after:(1.0 +. float_of_int (i land 1023)) (fun () -> ())
      in
      Queue.push h live;
      if Queue.length live > 4096 then Oasis_sim.Engine.cancel engine (Queue.pop live)
    done;
    let wall = Unix.gettimeofday () -. t0 in
    let pending = Oasis_sim.Engine.pending engine in
    let heap = Oasis_sim.Engine.heap_size engine in
    if heap > (2 * pending) + 256 then
      failwith (Printf.sprintf "E15: churn heap %d not O(live %d)" heap pending);
    let ops = float_of_int (2 * total) /. wall in
    Printf.printf "  churn %8d timers: %12.0f schedule+cancel ops/s, heap %d for %d live\n" total
      ops heap pending;
    (total, ops, heap, pending)
  in

  (* The churn times the engine alone, so it runs before the world rows:
     after them its rate would follow the size of the major heap they
     leave behind (a bigger heap means less major-GC work per allocated
     word), not the cost of the timer core. *)
  let churn_total, churn_ops, churn_heap, churn_pending =
    timer_churn (if smoke then 10_000 else 1_000_000)
  in
  Printf.printf "\n  full stack, heartbeats %.0fs; cascade over %d sampled revocations\n\n"
    heartbeat_period cascade_samples;
  Printf.printf "  %7s | %11s | %11s | %17s | %9s | %s\n" "N" "activation" "sustained"
    "cascade wall/virt" "rss" "heap/pending, storm";
  let rows = List.map session_row counts in
  write_result "BENCH_scale.json" (fun out ->
    Printf.fprintf out
      "\
      \  \"benchmark\": \"scale_curve\",\n\
      \  \"generated_by\": \"dune exec bench/main.exe -- E15%s\",\n\
      \  \"params\": { \"heartbeat_period_s\": %.0f, \"cascade_samples\": %d, \"smoke\": %b },\n\
      \  \"claim\": \"cascade detection stays period-bound, steady-state engine events and memory per session stay flat, and the timer heap stays O(live timers) from 10^3 to 10^5 sessions and 10^6 scheduled timers\",\n\
      \  \"rows\": [\n%s\n  ],\n\
      \  \"timer_churn\": { \"timers\": %d, \"schedule_cancel_ops_per_s\": %.0f,\n\
      \                   \"heap_final\": %d, \"pending_final\": %d }\n\
       }\n"
      (if smoke then " --smoke" else "")
      heartbeat_period cascade_samples smoke
      (String.concat ",\n" rows)
      churn_total churn_ops churn_heap churn_pending)

(* ------------------------------------------------------------------ *)
(* E16 — trust: score-gated revocation, collusion ablation, chain scale *)
(* ------------------------------------------------------------------ *)

(* Four measurements into BENCH_trust.json (DESIGN.md §15, Sect. 6):

   (a) live score crossing — a role gated on [env:trust_score(u) >= 0.6]
       collapses when breach certificates push the subject's score under
       the gate, through the same env.change -> svc.recheck -> svc.revoke
       trace path a fact change drives (E11's causal-order assertion);
   (b) collusion ablation — the marketplace simulation with colluders
       padding fabricated histories, with and without registrar
       discounting: discounting collapses the rogue registrar's weight
       and restores decision accuracy;
   (c) Byzantine minority — a minority of breach-reporting registrars
       cannot flip a proceed verdict backed by a majority of genuine
       fulfilments: (s+1)/(s+f+2) > θ whenever s > f at equal weights;
   (d) chain at scale — append 10^4 decisions, verify the full chain
       (in memory and from the textual export), and prove a single
       flipped bit anywhere in the export breaks verification. *)
let e16 () =
  header "E16 Trust: live audit trail, score-gated revocation, collusion ablation";
  let smoke = !smoke_mode in

  (* (a) the live crossing. Two fulfilled interactions lift the vendor to
     (2+1)/(2+2) = 0.75 and the gate admits it; breaches then drag the
     score under 0.6 and the trust-change notification revokes, no request
     in flight. *)
  let world = World.create ~seed:16 () in
  let sink, captured = Obs.memory_sink () in
  Obs.attach (World.obs world) sink;
  let civ = Civ.create world ~name:"civ" () in
  let svc =
    Service.create world ~name:"market"
      ~policy:"initial trusted(u) <- *env:trust_score(u) >= 0.6 ;" ()
  in
  let p = Principal.create world ~name:"vendor" in
  let pid = Principal.id p and sid = Service.id svc in
  let interact outcome =
    ignore
      (Civ.record_interaction civ ~client:pid ~server:sid ~client_outcome:outcome
         ~server_outcome:Audit.Fulfilled);
    World.settle world
  in
  interact Audit.Fulfilled;
  interact Audit.Fulfilled;
  World.run_proc world (fun () ->
      let session = Principal.start_session p in
      ignore
        (ok (Principal.activate p session svc ~role:"trusted" ~args:[ Some (Value.Id pid) ] ())));
  assert (List.length (Service.active_roles svc) = 1);
  let score_at_grant = World.trust_score world pid in
  let breaches = ref 0 in
  while List.length (Service.active_roles svc) > 0 && !breaches < 10 do
    incr breaches;
    interact Audit.Breached
  done;
  assert (List.length (Service.active_roles svc) = 0);
  let score_at_revoke = World.trust_score world pid in
  let events = captured () in
  let seq_of_first name =
    match List.find_opt (fun (e : Obs.event) -> String.equal e.Obs.name name) events with
    | Some e -> e.Obs.seq
    | None -> failwith ("E16: no " ^ name ^ " event in the trace")
  in
  let revoke_seq = seq_of_first "svc.revoke" in
  let last_before name limit =
    List.fold_left
      (fun acc (e : Obs.event) ->
        if String.equal e.Obs.name name && e.Obs.seq < limit then Some e.Obs.seq else acc)
      None events
  in
  let recheck_seq =
    match last_before "svc.recheck" revoke_seq with
    | Some s -> s
    | None -> failwith "E16: no svc.recheck before the revocation"
  in
  let change_seq =
    match last_before "env.change" recheck_seq with
    | Some s -> s
    | None -> failwith "E16: no env.change before the recheck"
  in
  assert (change_seq < recheck_seq && recheck_seq < revoke_seq);
  Printf.printf
    "  live crossing: granted at score %.3f, revoked at %.3f after %d breach(es)\n\
    \  causal order OK: env.change #%d -> svc.recheck #%d -> svc.revoke #%d\n\n"
    score_at_grant score_at_revoke !breaches change_seq recheck_seq revoke_seq;

  (* (b) collusion, with and without discounting. *)
  let rounds = if smoke then 8 else 30 in
  let collusion discounting =
    let params =
      {
        Simulation.default_params with
        colluder_fraction = 0.3;
        colluder_padding = 3;
        rounds;
        discounting;
        seed = 16;
      }
    in
    let r = Simulation.run params in
    let last = List.nth r.Simulation.per_round (rounds - 1) in
    (r.Simulation.final_accuracy, last.Simulation.mean_rogue_weight)
  in
  let acc_disc, rogue_disc = collusion true in
  let acc_nodisc, rogue_nodisc = collusion false in
  Printf.printf "  %-24s | %14s | %12s\n" "collusion (30% padded)" "final accuracy" "rogue weight";
  Printf.printf "  %-24s | %14.3f | %12.3f\n" "discounting on" acc_disc rogue_disc;
  Printf.printf "  %-24s | %14.3f | %12.3f\n\n" "discounting off" acc_nodisc rogue_nodisc;
  assert (acc_disc >= acc_nodisc);
  assert (rogue_disc < rogue_nodisc);

  (* (c) a Byzantine minority of registrars reports breaches; the majority
     history still clears the default 0.5 threshold. *)
  let rng = Rng.create 16 in
  let honest = Registrar.create rng ~name:"honest-dom" () in
  let byz1 = Registrar.create rng ~name:"byz-1" () in
  let byz2 = Registrar.create rng ~name:"byz-2" () in
  let subject = Ident.make "subject" 0 and peer = Ident.make "peer" 0 in
  let record reg outcome at =
    Registrar.record_interaction reg ~client:subject ~server:peer ~at ~client_outcome:outcome
      ~server_outcome:Audit.Fulfilled
  in
  let genuine = List.init 8 (fun i -> record honest Audit.Fulfilled (float_of_int i)) in
  let smears =
    [ record byz1 Audit.Breached 100.0; record byz2 Audit.Breached 101.0;
      record byz1 Audit.Breached 102.0 ]
  in
  let assessor = Assess.create () in
  let validate cert =
    List.exists
      (fun reg -> Ident.equal (Registrar.id reg) cert.Audit.registrar && Registrar.validate reg cert)
      [ honest; byz1; byz2 ]
  in
  let verdict = Assess.assess assessor ~validate ~subject ~presented:(genuine @ smears) in
  Printf.printf
    "  Byzantine minority: 8 genuine fulfilments vs 3 smears -> score %.3f, proceed %b\n\n"
    verdict.Assess.score verdict.Assess.proceed;
  assert verdict.Assess.proceed;

  (* (d) the chain at scale. *)
  let n = if smoke then 1000 else 10000 in
  let log = Dlog.create ~service:(Ident.make "market" 0) in
  let t0 = Sys.time () in
  for i = 0 to n - 1 do
    ignore
      (Dlog.append log ~at:(float_of_int i) ~decision:(if i mod 7 = 0 then Dlog.Deny else Dlog.Grant)
         ~principal:pid
         ~action:(Printf.sprintf "invoke:op%d" (i mod 13))
         ~args:[ Value.Int i ]
         ~rule:"priv op(u) <- trusted(u) ;"
         ~creds:[ Ident.make "cert" i ]
         ~env_facts:[ "trust_score(u, 0.6)" ] ())
  done;
  let append_s = Sys.time () -. t0 in
  let verify_hist = Obs.histogram (World.obs world) "audit.verify_ms" in
  let t0 = Sys.time () in
  let verified = Dlog.verify log in
  let verify_s = Sys.time () -. t0 in
  Obs.Histogram.observe verify_hist (verify_s *. 1e3);
  assert (verified = Ok n);
  let exported = Dlog.export log in
  let t0 = Sys.time () in
  let reverified = Dlog.verify_string exported in
  let reverify_s = Sys.time () -. t0 in
  Obs.Histogram.observe verify_hist (reverify_s *. 1e3);
  assert (reverified = Ok n);
  (* Flip one bit at a handful of positions spread across the export —
     header, early payload, a hash, the tail — every one must be caught. *)
  let len = String.length exported in
  let tamper_checks = [ 3; len / 5; len / 2; (len / 3) * 2; len - 2 ] in
  let caught =
    List.for_all
      (fun byte -> Result.is_error (Dlog.verify_string (Dlog.tamper exported ~byte)))
      tamper_checks
  in
  assert caught;
  Printf.printf "  %-28s | %12s\n" "chain of 10^4 decisions" "seconds";
  Printf.printf "  %-28s | %12.4f\n" (Printf.sprintf "append x%d" n) append_s;
  Printf.printf "  %-28s | %12.4f\n" "verify (in memory)" verify_s;
  Printf.printf "  %-28s | %12.4f\n" "verify (textual export)" reverify_s;
  Printf.printf "  tamper drill: %d single-bit flips, all detected\n" (List.length tamper_checks);

  write_result "BENCH_trust.json" (fun out ->
    Printf.fprintf out
      "\
      \  \"benchmark\": \"trust_audit\",\n\
      \  \"generated_by\": \"dune exec bench/main.exe -- E16%s\",\n\
      \  \"params\": { \"chain_records\": %d, \"collusion_rounds\": %d, \"smoke\": %b },\n\
      \  \"claim\": \"trust-score crossings revoke live through the Fig. 5 trace path; registrar \
       discounting defeats collusion; a Byzantine minority cannot flip a proceed verdict; one \
       flipped bit anywhere in an exported decision chain breaks verification\",\n\
      \  \"live_crossing\": { \"score_at_grant\": %.4f, \"score_at_revoke\": %.4f, \"breaches\": \
       %d, \"env_change_seq\": %d, \"recheck_seq\": %d, \"revoke_seq\": %d },\n\
      \  \"collusion\": {\n\
      \    \"discounting_on\": { \"final_accuracy\": %.4f, \"rogue_weight\": %.4f },\n\
      \    \"discounting_off\": { \"final_accuracy\": %.4f, \"rogue_weight\": %.4f }\n\
      \  },\n\
      \  \"byzantine_minority\": { \"genuine\": %d, \"smears\": %d, \"score\": %.4f, \"proceed\": \
       %b },\n\
      \  \"chain\": { \"records\": %d, \"append_seconds\": %.6f, \"verify_seconds\": %.6f, \
       \"verify_export_seconds\": %.6f, \"tamper_flips\": %d, \"tamper_detected\": %b }\n\
       }\n"
      (if smoke then " --smoke" else "")
      n rounds smoke score_at_grant score_at_revoke !breaches change_seq recheck_seq revoke_seq
      acc_disc rogue_disc acc_nodisc rogue_nodisc (List.length genuine) (List.length smears)
      verdict.Assess.score verdict.Assess.proceed n append_s verify_s reverify_s
      (List.length tamper_checks) caught)

(* ------------------------------------------------------------------ *)
(* E17 — trust robustness: O(1) decayed scoring, hysteresis, churn     *)
(* ------------------------------------------------------------------ *)

(* Four measurements into BENCH_trust_decay.json (DESIGN.md §16):

   (a) scoring cost — fold 10^4 interactions into the per-subject running
       aggregate (observe + cached_score each step, both O(1)) and compare
       against the naive quadratic baseline that re-assesses the whole
       wallet per interaction; the cached score must equal a full recompute
       to 1e-9 and beat the naive per-interaction cost by 5x or more;
   (b) hysteresis ablation — the same churn schedules with delta = 0 must
       revoke strictly more often than with the band on;
   (c) tamper drill — with the durable chain corrupted mid-run, every
       restart refuses the corrupted chain;
   (d) the churn summary itself — interactions, mid-issuance crashes, gate
       restarts and zero invariant violations across all seeds. *)
let e17 () =
  header "E17 Trust robustness: decayed scoring cost, hysteresis, tamper drill";
  let smoke = !smoke_mode in

  (* (a) incremental vs naive quadratic scoring. *)
  let n = 10_000 in
  let n_naive = if smoke then 300 else 2_000 in
  let rng = Rng.create 17 in
  let registrar = Registrar.create rng ~name:"civ-reg" () in
  let subject = Ident.make "subject" 0 and peer = Ident.make "peer" 0 in
  let at i = float_of_int i in
  let certs =
    Array.init n (fun i ->
        Registrar.record_interaction registrar ~client:subject ~server:peer ~at:(at i)
          ~client_outcome:(if i mod 5 = 0 then Audit.Breached else Audit.Fulfilled)
          ~server_outcome:Audit.Fulfilled)
  in
  let validate _ = true in
  let lambda = 0.002 in
  let fast = Assess.create ~decay_rate:lambda () in
  (* A remembered assess over the (still empty) wallet seeds the running
     aggregate; from then on every interaction is one [observe] plus one
     [cached_score] — no wallet traversal. *)
  ignore (Assess.assess_at ~remember:true fast ~now:0.0 ~validate ~subject ~presented:[]);
  let t0 = Sys.time () in
  Array.iteri
    (fun i c ->
      Assess.observe fast ~subject ~now:(at i) c;
      ignore (Assess.cached_score fast ~subject ~now:(at i)))
    certs;
  let incr_s = Sys.time () -. t0 in
  let naive = Assess.create ~decay_rate:lambda () in
  let wallet = ref [] in
  let t0 = Sys.time () in
  for i = 0 to n_naive - 1 do
    wallet := certs.(i) :: !wallet;
    ignore (Assess.assess_at naive ~now:(at i) ~validate ~subject ~presented:!wallet)
  done;
  let naive_s = Sys.time () -. t0 in
  let last = at (n - 1) in
  let cached =
    match Assess.cached_score fast ~subject ~now:last with
    | Some s -> s
    | None -> failwith "E17: no cached score after 10^4 observations"
  in
  let full =
    (Assess.assess_at
       (Assess.create ~decay_rate:lambda ())
       ~now:last ~validate ~subject ~presented:(Array.to_list certs))
      .Assess.score
  in
  let delta = Float.abs (cached -. full) in
  assert (delta < 1e-9);
  let per_incr = incr_s /. float_of_int n in
  let per_naive = naive_s /. float_of_int n_naive in
  (* The non-quadratic claim: the naive baseline's per-interaction cost is
     proportional to the wallet (avg n_naive/2 certificates); the running
     aggregate's is constant. 5x is a very loose floor for that gap. *)
  assert (per_incr *. 5.0 < per_naive);
  Printf.printf "  %-38s | %12s | %14s\n" "scoring 10^4 interactions" "total s" "per-interaction";
  Printf.printf "  %-38s | %12.4f | %14.2e\n"
    (Printf.sprintf "running aggregate (x%d)" n)
    incr_s per_incr;
  Printf.printf "  %-38s | %12.4f | %14.2e\n"
    (Printf.sprintf "naive full re-assess (x%d)" n_naive)
    naive_s per_naive;
  Printf.printf "  cached vs full recompute at t=%.0f: |%.9f - %.9f| = %.1e\n\n" last cached full
    delta;

  (* (b)-(d) the churn harness: banded vs flappy, and the tamper drill. *)
  let n_seeds = if smoke then 6 else 12 in
  let steps = if smoke then 20 else 30 in
  let seeds = List.init n_seeds (fun i -> i + 1) in
  let churn ~band ~tamper seed = Churn.run { Churn.default_config with seed; steps; band; tamper } in
  let banded = List.map (churn ~band:0.1 ~tamper:false) seeds in
  let flappy = List.map (churn ~band:0.0 ~tamper:false) seeds in
  let sum f l = List.fold_left (fun acc s -> acc + f s) 0 l in
  let deacts = sum (fun (s : Churn.summary) -> s.Churn.cascade_deactivations) in
  let violations = sum (fun (s : Churn.summary) -> List.length s.Churn.violations) in
  assert (violations banded = 0);
  assert (violations flappy = 0);
  let banded_deacts = deacts banded and flappy_deacts = deacts flappy in
  let suppressed = sum (fun (s : Churn.summary) -> s.Churn.flaps_suppressed) banded in
  assert (suppressed > 0);
  assert (flappy_deacts > banded_deacts);
  Printf.printf "  %-38s | %12s | %12s\n" "hysteresis ablation" "revocations" "flaps held";
  Printf.printf "  %-38s | %12d | %12d\n" "band 0.10" banded_deacts suppressed;
  Printf.printf "  %-38s | %12d | %12d\n\n" "band 0.00 (ablation)" flappy_deacts 0;
  let closed = List.map (churn ~band:0.1 ~tamper:true) seeds in
  let count f l = List.length (List.filter f l) in
  let tampered_closed = count (fun (s : Churn.summary) -> s.Churn.tampered) closed in
  let detected =
    count (fun (s : Churn.summary) -> s.Churn.tampered && s.Churn.tamper_detected) closed
  in
  assert (violations closed = 0);
  assert (tampered_closed > 0);
  assert (detected = tampered_closed);
  Printf.printf "  %-38s | %12s | %12s\n" "durable-chain tamper drill" "tampered" "outcome";
  Printf.printf "  %-38s | %12d | %9d refused\n\n" "fail-closed resume" tampered_closed detected;
  let interactions = sum (fun (s : Churn.summary) -> s.Churn.interactions) banded in
  let mid_crashes = sum (fun (s : Churn.summary) -> s.Churn.mid_crashes) banded in
  let gate_restarts = sum (fun (s : Churn.summary) -> s.Churn.gate_restarts) banded in
  let grants = sum (fun (s : Churn.summary) -> s.Churn.grants) banded in
  Printf.printf
    "  churn over %d seeds x %d steps: %d interactions, %d mid-issuance crashes, %d gate \
     restarts, %d grants, 0 violations\n"
    n_seeds steps interactions mid_crashes gate_restarts grants;

  write_result "BENCH_trust_decay.json" (fun out ->
    Printf.fprintf out
      "\
      \  \"benchmark\": \"trust_decay\",\n\
      \  \"generated_by\": \"dune exec bench/main.exe -- E17%s\",\n\
      \  \"params\": { \"interactions\": %d, \"naive_interactions\": %d, \"decay_rate\": %.4f, \
       \"seeds\": %d, \"steps\": %d, \"smoke\": %b },\n\
      \  \"claim\": \"per-subject running aggregates score 10^4 decayed interactions in O(1) each \
       and match a full recompute; the hysteresis band strictly reduces revocations under churn; \
       restarts refuse every tampered durable chain\",\n\
      \  \"scoring\": { \"interactions\": %d, \"aggregate_seconds\": %.6f, \
       \"aggregate_per_interaction\": %.3e, \"naive_interactions\": %d, \"naive_seconds\": %.6f, \
       \"naive_per_interaction\": %.3e, \"cached_vs_full_delta\": %.3e },\n\
      \  \"hysteresis\": { \"band\": 0.10, \"banded_revocations\": %d, \"flappy_revocations\": %d, \
       \"flaps_suppressed\": %d },\n\
      \  \"chain\": { \"tampered_runs\": %d, \"fail_closed_refused\": %d },\n\
      \  \"churn\": { \"seeds\": %d, \"steps\": %d, \"interactions\": %d, \"mid_issuance_crashes\": \
       %d, \"gate_restarts\": %d, \"grants\": %d, \"violations\": %d }\n\
       }\n"
      (if smoke then " --smoke" else "")
      n n_naive lambda n_seeds steps smoke n incr_s per_incr n_naive naive_s per_naive delta
      banded_deacts flappy_deacts suppressed tampered_closed detected n_seeds steps
      interactions mid_crashes gate_restarts grants (violations banded))

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("E1", e1); ("E2", e2); ("E3", e3); ("E4", e4); ("E5", e5); ("E6", e6); ("E7", e7);
    ("E8", e8); ("E9", e9); ("E11", e11); ("E12", e12); ("E13", e13); ("E15", e15); ("E16", e16);
    ("E17", e17);
  ]

let () =
  let requested =
    List.filter
      (fun arg ->
        if String.equal arg "--smoke" then begin
          smoke_mode := true;
          false
        end
        else true)
      (List.tl (Array.to_list Sys.argv))
  in
  let selected =
    match requested with
    | [] -> experiments
    | names -> List.filter (fun (name, _) -> List.mem name names) experiments
  in
  if selected = [] then begin
    Printf.eprintf "unknown experiment; available: %s\n"
      (String.concat " " (List.map fst experiments));
    exit 1
  end;
  Printf.printf "OASIS reproduction benchmark harness (see DESIGN.md section 4, EXPERIMENTS.md)\n";
  List.iter (fun (_, run) -> run ()) selected
