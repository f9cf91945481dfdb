module Value = Oasis_util.Value
module Clock = Oasis_util.Clock

exception Unknown_predicate of string

module Tuple = struct
  type t = Value.t list

  let compare = List.compare Value.compare
end

module Tuple_set = Set.Make (Tuple)

type t = {
  clock : Clock.t;
  facts : (string, Tuple_set.t ref) Hashtbl.t;
  computed : (string, Value.t list -> bool) Hashtbl.t;
  holds : (string, Value.t list -> bool) Hashtbl.t;
  mutable listeners : (string -> Value.t list -> [ `Asserted | `Retracted ] -> unit) list;
}

let seconds_per_hour = 3600.0
let seconds_per_day = 86400.0

let as_float = function
  | Value.Int n -> Some (float_of_int n)
  | Value.Time f -> Some f
  | Value.Str _ | Value.Bool _ | Value.Id _ -> None

let numeric_cmp op = function
  | [ a; b ] -> (
      match (as_float a, as_float b) with
      | Some x, Some y -> op (Float.compare x y) 0
      | _ -> op (Value.compare a b) 0)
  | _ -> false

(* The static shape of the built-ins registered by [create]. `Pure
   predicates depend only on their arguments: their truth value never
   changes spontaneously, so a membership mark on one is unmonitorable
   (nothing ever re-triggers the check). `Timed predicates read the clock
   and are monitored by re-check timers. `Live predicates read external
   mutable state (the trust assessor); its owner announces each change to
   the membership monitor, so marks on them are monitorable without
   timers. The linter consumes this list; keep it in step with
   [register_builtins]. *)
let builtin_predicates =
  [
    ("eq", 2, `Pure);
    ("ne", 2, `Pure);
    ("lt", 2, `Pure);
    ("le", 2, `Pure);
    ("gt", 2, `Pure);
    ("ge", 2, `Pure);
    ("before", 1, `Timed);
    ("after", 1, `Timed);
    ("hour_between", 2, `Timed);
    ("trust_score", 2, `Live);
    (* With the optional hysteresis band: trust_score(subject, theta, delta)
       grants at score >= theta and holds existing memberships down to
       theta - delta. The parser's [>= theta ~ delta] sugar produces this
       form. *)
    ("trust_score", 3, `Live);
  ]

let register_builtins t =
  let reg name f = Hashtbl.replace t.computed name f in
  reg "eq" (numeric_cmp ( = ));
  reg "ne" (numeric_cmp ( <> ));
  reg "lt" (numeric_cmp ( < ));
  reg "le" (numeric_cmp ( <= ));
  reg "gt" (numeric_cmp ( > ));
  reg "ge" (numeric_cmp ( >= ));
  reg "before" (function
    | [ v ] -> ( match as_float v with Some limit -> Clock.now t.clock < limit | None -> false)
    | _ -> false);
  reg "after" (function
    | [ v ] -> ( match as_float v with Some start -> Clock.now t.clock >= start | None -> false)
    | _ -> false);
  reg "hour_between" (function
    | [ lo; hi ] -> (
        match (as_float lo, as_float hi) with
        | Some lo, Some hi ->
            let hour =
              Float.rem (Clock.now t.clock) seconds_per_day /. seconds_per_hour
            in
            if lo <= hi then lo <= hour && hour < hi else hour >= lo || hour < hi
        | _ -> false)
    | _ -> false);
  (* Fail closed: until a live assessor is bridged in (Service.create
     re-registers over this), no subject clears any trust threshold. *)
  reg "trust_score" (fun _ -> false)

let create clock =
  let t =
    {
      clock;
      facts = Hashtbl.create 64;
      computed = Hashtbl.create 16;
      holds = Hashtbl.create 4;
      listeners = [];
    }
  in
  register_builtins t;
  t

let notify t name args change = List.iter (fun l -> l name args change) (List.rev t.listeners)

let bucket t name =
  match Hashtbl.find_opt t.facts name with
  | Some b -> b
  | None ->
      let b = ref Tuple_set.empty in
      Hashtbl.replace t.facts name b;
      b

let declare_fact t name =
  if Hashtbl.mem t.computed name then
    invalid_arg (Printf.sprintf "Env.declare_fact: %s is a computed predicate" name);
  ignore (bucket t name)

let assert_fact t name args =
  if Hashtbl.mem t.computed name then
    invalid_arg (Printf.sprintf "Env.assert_fact: %s is a computed predicate" name);
  let b = bucket t name in
  if not (Tuple_set.mem args !b) then begin
    b := Tuple_set.add args !b;
    notify t name args `Asserted
  end

let retract_fact t name args =
  match Hashtbl.find_opt t.facts name with
  | None -> ()
  | Some b ->
      if Tuple_set.mem args !b then begin
        b := Tuple_set.remove args !b;
        notify t name args `Retracted
      end

let register t name f =
  if Hashtbl.mem t.facts name then
    invalid_arg (Printf.sprintf "Env.register: %s is already a fact predicate" name);
  Hashtbl.replace t.computed name f

let register_hold t name f =
  if not (Hashtbl.mem t.computed name) then
    invalid_arg (Printf.sprintf "Env.register_hold: %s is not a computed predicate" name);
  Hashtbl.replace t.holds name f

let strip_negation name =
  if String.length name > 0 && name.[0] = '!' then
    (true, String.sub name 1 (String.length name - 1))
  else (false, name)

let base_name name = snd (strip_negation name)
let negated name = fst (strip_negation name)

let check_positive t name args =
  match Hashtbl.find_opt t.computed name with
  | Some f -> f args
  | None -> (
      match Hashtbl.find_opt t.facts name with
      | Some b -> Tuple_set.mem args !b
      | None -> raise (Unknown_predicate name))

let check t name args =
  let negated, base = strip_negation name in
  let holds = check_positive t base args in
  if negated then not holds else holds

let check_hold t name args =
  let negated, base = strip_negation name in
  let holds =
    match Hashtbl.find_opt t.holds base with
    | Some f -> f args
    | None -> check_positive t base args
  in
  if negated then not holds else holds

let enumerate t name =
  let negated, base = strip_negation name in
  if negated || Hashtbl.mem t.computed base then []
  else
    match Hashtbl.find_opt t.facts base with
    | Some b -> Tuple_set.elements !b
    | None ->
        (* Unknown predicates must fail loudly even via enumeration. *)
        raise (Unknown_predicate base)

let next_change_time t name args =
  let _, base = strip_negation name in
  match (base, args) with
  | ("before" | "after"), [ v ] -> (
      match as_float v with
      | Some limit when limit > Clock.now t.clock -> Some limit
      | _ -> None)
  | "hour_between", [ lo; hi ] -> (
      match (as_float lo, as_float hi) with
      | Some lo, Some hi ->
          let now = Clock.now t.clock in
          let day_start = now -. Float.rem now seconds_per_day in
          let candidates =
            [
              day_start +. (lo *. seconds_per_hour);
              day_start +. (hi *. seconds_per_hour);
              day_start +. ((lo +. 24.0) *. seconds_per_hour);
              day_start +. ((hi +. 24.0) *. seconds_per_hour);
            ]
          in
          List.filter (fun c -> c > now) candidates |> List.fold_left min infinity
          |> fun m -> if m = infinity then None else Some m
      | _ -> None)
  | _ -> None

let on_change t listener = t.listeners <- listener :: t.listeners

