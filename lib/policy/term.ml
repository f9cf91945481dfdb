module Value = Oasis_util.Value

type t =
  | Var of string
  | Const of Value.t

let to_string = function
  | Var v -> v
  | Const c -> Value.to_string c

let pp ppf t = Format.pp_print_string ppf (to_string t)

let equal a b =
  match (a, b) with
  | Var x, Var y -> String.equal x y
  | Const x, Const y -> Value.equal x y
  | Var _, Const _ | Const _, Var _ -> false

let vars terms =
  let seen = Hashtbl.create 8 in
  List.filter_map
    (function
      | Const _ -> None
      | Var v ->
          if Hashtbl.mem seen v then None
          else begin
            Hashtbl.add seen v ();
            Some v
          end)
    terms

module Subst = struct
  module M = Map.Make (String)

  type binding = Value.t

  type t = binding M.t

  let empty = M.empty

  let find t v = M.find_opt v t

  let bind t v value =
    match M.find_opt v t with
    | None -> Some (M.add v value t)
    | Some existing -> if Value.equal existing value then Some t else None

  let bindings t = M.bindings t

  let pp ppf t =
    Format.fprintf ppf "{%a}"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         (fun ppf (v, value) -> Format.fprintf ppf "%s=%a" v Value.pp value))
      (bindings t)
end

let ground subst = function
  | Const c -> Some c
  | Var v -> Subst.find subst v

let unify subst term value =
  match term with
  | Const c -> if Value.equal c value then Some subst else None
  | Var v -> Subst.bind subst v value

let unify_args subst terms values =
  if List.length terms <> List.length values then None
  else
    List.fold_left2
      (fun acc term value -> match acc with None -> None | Some s -> unify s term value)
      (Some subst) terms values
