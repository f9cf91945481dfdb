module Env = Oasis_policy.Env
module World = Oasis_core.World
module Service = Oasis_core.Service
module Engine = Oasis_sim.Engine

type t = {
  dname : string;
  world : World.t;
  denv : Env.t;
  civ : Civ.t;
  mutable services : (string * Service.t) list;
}

let qualified_name dname n = dname ^ "." ^ n

let create world ~name ?offline_sign () =
  let civ = Civ.create world ~name:(qualified_name name "civ") ?offline_sign () in
  {
    dname = name;
    world;
    denv = Env.create (Engine.clock (World.engine world));
    civ;
    services = [];
  }

let civ t = t.civ
let env t = t.denv

let add_service t ~name ?config ~policy () =
  let service =
    Service.create t.world ~name:(qualified_name t.dname name) ?config ~env:t.denv ~policy ()
  in
  t.services <- (name, service) :: t.services;
  service

let services t = List.map snd t.services

let find_service t short = List.assoc_opt short t.services

