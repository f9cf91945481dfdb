module Ident = Oasis_util.Ident
module Rng = Oasis_util.Rng

type server_kind = Honest | Byzantine of float | Colluder of int

type params = {
  servers : int;
  clients : int;
  byzantine_fraction : float;
  byzantine_breach_probability : float;
  colluder_fraction : float;
  colluder_padding : int;
  rounds : int;
  interactions_per_round : int;
  threshold : float;
  discounting : bool;
  favourable_presentation : bool;
  seed : int;
}

let default_params =
  {
    servers = 40;
    clients = 40;
    byzantine_fraction = 0.25;
    byzantine_breach_probability = 0.9;
    colluder_fraction = 0.0;
    colluder_padding = 2;
    rounds = 30;
    interactions_per_round = 80;
    threshold = 0.5;
    discounting = true;
    favourable_presentation = false;
    seed = 42;
  }

type round_stats = {
  round : int;
  proceeded_with_good : int;
  proceeded_with_bad : int;
  refused_good : int;
  refused_bad : int;
  accuracy : float;
  mean_rogue_weight : float;
}

type result = { params : params; per_round : round_stats list; final_accuracy : float }

type server = { s_id : Ident.t; kind : server_kind; s_history : History.t }

type client = { c_id : Ident.t; assessor : Assess.t; mutable decisions : int }

let is_bad = function Honest -> false | Byzantine _ | Colluder _ -> true

let run params =
  if params.servers < 2 || params.clients < 1 then invalid_arg "Simulation.run: population too small";
  let rng = Rng.create params.seed in
  let honest_registrar = Registrar.create (Rng.split rng) ~name:"main" () in
  let rogue_registrar = Registrar.create (Rng.split rng) ~name:"rogue" ~honest:false () in
  let n_byz = int_of_float (Float.round (params.byzantine_fraction *. float_of_int params.servers)) in
  let n_col = int_of_float (Float.round (params.colluder_fraction *. float_of_int params.servers)) in
  if n_byz + n_col > params.servers then invalid_arg "Simulation.run: fractions exceed 1";
  let server_gen = Ident.generator "server" in
  let servers =
    Array.init params.servers (fun i ->
        let kind =
          if i < n_byz then Byzantine params.byzantine_breach_probability
          else if i < n_byz + n_col then Colluder params.colluder_padding
          else Honest
        in
        let s_id = Ident.fresh server_gen in
        { s_id; kind; s_history = History.create s_id })
  in
  (* Shuffle so kind does not correlate with identifier order. *)
  Rng.shuffle rng servers;
  let client_gen = Ident.generator "client" in
  let clients =
    Array.init params.clients (fun _ ->
        {
          c_id = Ident.fresh client_gen;
          assessor = Assess.create ~threshold:params.threshold ~discounting:params.discounting ();
          decisions = 0;
        })
  in
  let validate cert =
    let r : Audit.t = cert in
    if Ident.equal r.registrar (Registrar.id honest_registrar) then
      Registrar.validate honest_registrar cert
    else if Ident.equal r.registrar (Registrar.id rogue_registrar) then
      Registrar.validate rogue_registrar cert
    else false
  in
  let per_round = ref [] in
  for round = 1 to params.rounds do
    let now = float_of_int round in
    (* Colluders pad their histories before the round's business. *)
    Array.iter
      (fun server ->
        match server.kind with
        | Colluder padding ->
            for _ = 1 to padding do
              let fake_client = Ident.make "ghost" (Rng.int rng 1000000) in
              ignore
                (History.add server.s_history
                   (Registrar.fabricate rogue_registrar ~client:fake_client ~server:server.s_id
                      ~at:now)
                  : bool)
            done
        | Honest | Byzantine _ -> ())
      servers;
    let good_yes = ref 0 and bad_yes = ref 0 and good_no = ref 0 and bad_no = ref 0 in
    for _ = 1 to params.interactions_per_round do
      let client = clients.(Rng.int rng (Array.length clients)) in
      let server = servers.(Rng.int rng (Array.length servers)) in
      let presented =
        if params.favourable_presentation then History.present_favourable server.s_history
        else History.present server.s_history
      in
      let verdict = Assess.assess client.assessor ~validate ~subject:server.s_id ~presented in
      client.decisions <- client.decisions + 1;
      let bad = is_bad server.kind in
      if verdict.proceed then begin
        if bad then incr bad_yes else incr good_yes;
        let server_outcome =
          match server.kind with
          | Honest -> Audit.Fulfilled
          | Byzantine p -> if Rng.bernoulli rng p then Audit.Breached else Audit.Fulfilled
          | Colluder _ -> Audit.Breached
        in
        let cert =
          Registrar.record_interaction honest_registrar ~client:client.c_id ~server:server.s_id
            ~at:now ~client_outcome:Audit.Fulfilled ~server_outcome
        in
        ignore (History.add server.s_history cert : bool);
        Assess.feedback client.assessor verdict ~actual:server_outcome
      end
      else if bad then incr bad_no
      else incr good_no
    done;
    let decisions = !good_yes + !bad_yes + !good_no + !bad_no in
    let correct = !good_yes + !bad_no in
    let mean_rogue_weight =
      Array.fold_left
        (fun acc client ->
          acc +. Assess.registrar_weight client.assessor (Registrar.id rogue_registrar))
        0.0 clients
      /. float_of_int (Array.length clients)
    in
    per_round :=
      {
        round;
        proceeded_with_good = !good_yes;
        proceeded_with_bad = !bad_yes;
        refused_good = !good_no;
        refused_bad = !bad_no;
        accuracy = (if decisions = 0 then 1.0 else float_of_int correct /. float_of_int decisions);
        mean_rogue_weight;
      }
      :: !per_round
  done;
  let per_round = List.rev !per_round in
  let tail = max 1 (params.rounds / 4) in
  let last = List.filteri (fun i _ -> i >= params.rounds - tail) per_round in
  let final_accuracy =
    List.fold_left (fun acc r -> acc +. r.accuracy) 0.0 last /. float_of_int (List.length last)
  in
  { params; per_round; final_accuracy }
