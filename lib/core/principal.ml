module Ident = Oasis_util.Ident
module Value = Oasis_util.Value
module Network = Oasis_sim.Network
module Rmc = Oasis_cert.Rmc
module Appointment = Oasis_cert.Appointment
module Elgamal = Oasis_crypto.Elgamal
module Challenge = Oasis_crypto.Challenge

type session = {
  keys : Elgamal.keypair;
  mutable rmcs : (Rmc.t * bool) list; (* certificate, is-initial *)
  mutable open_ : bool;
}

type t = {
  pid : Ident.t;
  pname : string;
  world : World.t;
  longterm : Elgamal.keypair;
  mutable wallet : Appointment.t list;
  mutable sessions : session list;
  mutable pseudonyms : Elgamal.keypair list;
}

let id t = t.pid
let name t = t.pname

let longterm_public t = Elgamal.public_to_string t.longterm.Elgamal.public

let answer_challenge t (challenge : Challenge.challenge) ~key_hint =
  let keys =
    (t.longterm :: List.map (fun s -> s.keys) t.sessions) @ t.pseudonyms
  in
  match
    List.find_opt (fun kp -> String.equal (Elgamal.public_to_string kp.Elgamal.public) key_hint) keys
  with
  | Some kp -> Challenge.respond kp.Elgamal.private_key challenge
  | None -> ""

let create world ~name =
  let pid = World.fresh_principal_id world in
  let t =
    {
      pid;
      pname = name;
      world;
      longterm = Elgamal.generate (World.rng world);
      wallet = [];
      sessions = [];
      pseudonyms = [];
    }
  in
  Network.add_node (World.network world) pid (fun ~src:_ -> function
    | Protocol.Challenge_msg { challenge; key_hint } ->
        Protocol.Challenge_response (answer_challenge t challenge ~key_hint)
    | _ -> Protocol.Denied (Protocol.Bad_request "principals only answer challenges"));
  t

let fresh_pseudonym t =
  let keys = Elgamal.generate (World.rng t.world) in
  t.pseudonyms <- keys :: t.pseudonyms;
  (World.fresh_anon_id t.world, Elgamal.public_to_string keys.Elgamal.public)

let grant_appointment t appt = t.wallet <- appt :: t.wallet

let appointments t = t.wallet

let drop_appointment t cert_id =
  t.wallet <- List.filter (fun (a : Appointment.t) -> not (Ident.equal a.id cert_id)) t.wallet

let start_session t =
  let session = { keys = Elgamal.generate (World.rng t.world); rmcs = []; open_ = true } in
  t.sessions <- session :: t.sessions;
  session

let session_key session = Elgamal.public_to_string session.keys.Elgamal.public

let session_rmcs session = List.map fst session.rmcs

let initial_rmcs session = List.filter_map (fun (rmc, initial) -> if initial then Some rmc else None) session.rmcs

let credentials t session =
  { Protocol.rmcs = session_rmcs session; appointments = t.wallet }

let call t service msg =
  match
    Network.rpc (World.network t.world) ~src:t.pid ~dst:(Service.id service) msg
  with
  | reply -> reply
  | exception Network.Rpc_dropped -> Protocol.Denied (Protocol.Bad_request "network failure")

let activate_with t session service ~role ?(args = []) ?alias ~creds () =
  let principal = match alias with Some a -> a | None -> t.pid in
  match
    call t service
      (Protocol.Activate
         { principal; session_key = session_key session; role; requested = args; creds })
  with
  | Protocol.Activate_ok { rmc; initial } ->
      session.rmcs <- (rmc, initial) :: session.rmcs;
      Ok rmc
  | Protocol.Denied denial -> Error denial
  | _ -> Error (Protocol.Bad_request "unexpected reply")

let activate t session service ~role ?(args = []) () =
  activate_with t session service ~role ~args ~creds:(credentials t session) ()

let invoke_with t session service ~privilege ~args ?alias ~creds () =
  let principal = match alias with Some a -> a | None -> t.pid in
  match
    call t service
      (Protocol.Invoke
         { principal; session_key = session_key session; privilege; args; creds })
  with
  | Protocol.Invoke_ok result -> Ok result
  | Protocol.Denied denial -> Error denial
  | _ -> Error (Protocol.Bad_request "unexpected reply")

let invoke t session service ~privilege ~args =
  invoke_with t session service ~privilege ~args ~creds:(credentials t session) ()

let invoke_as t session service ~privilege ~args ~alias =
  invoke_with t session service ~privilege ~args ~alias ~creds:(credentials t session) ()

let appoint t session service ~kind ~args ~holder ?expires_at () =
  match
    call t service
      (Protocol.Appoint
         {
           principal = t.pid;
           session_key = session_key session;
           kind;
           args;
           holder = holder.pid;
           holder_key = longterm_public holder;
           expires_at;
           creds = credentials t session;
         })
  with
  | Protocol.Appoint_ok appt ->
      grant_appointment holder appt;
      Ok appt
  | Protocol.Denied denial -> Error denial
  | _ -> Error (Protocol.Bad_request "unexpected reply")

let deactivate t session (rmc : Rmc.t) =
  let reply =
    match
      Network.rpc (World.network t.world) ~src:t.pid ~dst:rmc.issuer
        (Protocol.Deactivate { cert_id = rmc.id; session_key = session_key session })
    with
    | reply -> reply
    | exception Network.Rpc_dropped -> Protocol.Denied (Protocol.Bad_request "network failure")
  in
  match reply with
  | Protocol.Deactivate_ok ->
      session.rmcs <- List.filter (fun (r, _) -> not (Ident.equal r.Rmc.id rmc.Rmc.id)) session.rmcs;
      true
  | _ -> false

let logout t session =
  List.iter (fun rmc -> ignore (deactivate t session rmc)) (initial_rmcs session);
  session.rmcs <- [];
  session.open_ <- false;
  t.sessions <- List.filter (fun s -> s != session) t.sessions
