(** Population experiments for the web-of-trust speculation (Sect. 6).

    "What is needed is an approach which will allow a trust infrastructure
    to evolve despite Byzantine behaviour by a minority of the principals."

    The simulation populates a marketplace of server agents (honest,
    Byzantine, or colluding) and client agents that consult presented audit
    histories before proceeding. Colluders pad their histories with
    certificates fabricated by a rogue registrar (the paper's "client and
    service might collude to build up a false history"). Experiment E8
    sweeps the Byzantine fraction and toggles registrar discounting, and
    reports per-round decision accuracy. *)

type server_kind =
  | Honest  (** always fulfils *)
  | Byzantine of float  (** breaches with this probability *)
  | Colluder of int  (** breaches always; pads this many fabricated certificates per round *)

type params = {
  servers : int;
  clients : int;
  byzantine_fraction : float;
  byzantine_breach_probability : float;
  colluder_fraction : float;
  colluder_padding : int;  (** fabricated certificates per colluder per round *)
  rounds : int;
  interactions_per_round : int;
  threshold : float;
  discounting : bool;
  favourable_presentation : bool;
      (** servers withhold unfavourable certificates (strategic presentation) *)
  seed : int;
}

val default_params : params

type round_stats = {
  round : int;
  proceeded_with_good : int;  (** correct accepts *)
  proceeded_with_bad : int;  (** the costly mistake *)
  refused_good : int;  (** lost business *)
  refused_bad : int;  (** correct refusals *)
  accuracy : float;  (** correct decisions / decisions *)
  mean_rogue_weight : float;  (** mean credibility of the rogue registrar across clients *)
}

type result = {
  params : params;
  per_round : round_stats list;
  final_accuracy : float;  (** mean accuracy over the last quarter of rounds *)
}

val run : params -> result
(** Deterministic for a given [params] (including seed). *)
