(** Terms and substitutions for the Horn-clause policy language.

    Role activation rules are Horn clauses over parametrised atoms
    (Sect. 2). A term is either a variable (bound during rule evaluation,
    e.g. the [doctor_id] in [treating_doctor(doctor_id, patient_id)]) or a
    constant parameter value. *)

type t =
  | Var of string
  | Const of Oasis_util.Value.t

val pp : Format.formatter -> t -> unit
val to_string : t -> string
val equal : t -> t -> bool

val vars : t list -> string list
(** Distinct variable names, in first-occurrence order. *)

(** Substitutions map variable names to ground values. *)
module Subst : sig
  type binding = Oasis_util.Value.t

  type nonrec t

  val empty : t
  val find : t -> string -> binding option
  val bind : t -> string -> binding -> t option
  (** [None] if the variable is already bound to a different value. *)

  val pp : Format.formatter -> t -> unit
end

val apply : Subst.t -> t -> t
(** Replaces bound variables by their values. *)

val ground : Subst.t -> t -> Oasis_util.Value.t option
(** The value of a term under a substitution; [None] if still a free var. *)

val unify : Subst.t -> t -> Oasis_util.Value.t -> Subst.t option
(** Unifies one term against a ground value. *)

val unify_args : Subst.t -> t list -> Oasis_util.Value.t list -> Subst.t option
(** Pointwise unification; [None] on arity mismatch or clash. *)
