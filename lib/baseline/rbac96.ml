module Ident = Oasis_util.Ident

type permission = { operation : string; target : string }

module Perm_set = Set.Make (struct
  type t = permission

  let compare a b =
    let c = String.compare a.operation b.operation in
    if c <> 0 then c else String.compare a.target b.target
end)

module Str_set = Set.Make (String)

type session = {
  user : Ident.t;
  mutable active : Str_set.t;
  mutable closed : bool;
}

type t = {
  mutable roles : Str_set.t;
  (* senior -> juniors it directly inherits *)
  juniors : (string, Str_set.t) Hashtbl.t;
  ua : (string, Str_set.t) Hashtbl.t; (* user ident string -> roles *)
  pa : (string, Perm_set.t) Hashtbl.t; (* role -> permissions *)
  mutable ssd : (string * string) list;
  mutable users : Ident.Set.t;
  mutable sessions : session list;
  mutable ops : int;
}

let create () =
  {
    roles = Str_set.empty;
    juniors = Hashtbl.create 64;
    ua = Hashtbl.create 256;
    pa = Hashtbl.create 64;
    ssd = [];
    users = Ident.Set.empty;
    sessions = [];
    ops = 0;
  }

let counted t changed = if changed then t.ops <- t.ops + 1

let admin_ops t = t.ops

let require_role t role =
  if not (Str_set.mem role t.roles) then
    invalid_arg (Printf.sprintf "Rbac96: unknown role %s" role)

let add_role t role =
  let changed = not (Str_set.mem role t.roles) in
  t.roles <- Str_set.add role t.roles;
  counted t changed

(* Reflexive-transitive closure downward: the role itself plus everything
   junior to it. *)
let descendants t role =
  let rec go acc role =
    if Str_set.mem role acc then acc
    else
      let acc = Str_set.add role acc in
      match Hashtbl.find_opt t.juniors role with
      | None -> acc
      | Some juniors -> Str_set.fold (fun junior acc -> go acc junior) juniors acc
  in
  go Str_set.empty role

let add_inheritance t ~senior ~junior =
  require_role t senior;
  require_role t junior;
  if Str_set.mem senior (descendants t junior) then
    invalid_arg
      (Printf.sprintf "Rbac96.add_inheritance: %s -> %s would create a cycle" senior junior);
  let existing =
    match Hashtbl.find_opt t.juniors senior with Some s -> s | None -> Str_set.empty
  in
  let changed = not (Str_set.mem junior existing) in
  Hashtbl.replace t.juniors senior (Str_set.add junior existing);
  counted t changed

let add_user t user =
  let changed = not (Ident.Set.mem user t.users) in
  t.users <- Ident.Set.add user t.users;
  counted t changed

let key user = Ident.to_string user

let assigned t user =
  match Hashtbl.find_opt t.ua (key user) with Some s -> s | None -> Str_set.empty

let violates_ssd t user role =
  let would_have = Str_set.add role (assigned t user) in
  List.exists (fun (a, b) -> Str_set.mem a would_have && Str_set.mem b would_have) t.ssd

let assign_user t user role =
  require_role t role;
  if not (Ident.Set.mem user t.users) then
    invalid_arg (Printf.sprintf "Rbac96.assign_user: unknown user %s" (Ident.to_string user));
  if violates_ssd t user role then
    invalid_arg
      (Printf.sprintf "Rbac96.assign_user: %s for %s violates separation of duty" role
         (Ident.to_string user));
  let existing = assigned t user in
  let changed = not (Str_set.mem role existing) in
  Hashtbl.replace t.ua (key user) (Str_set.add role existing);
  counted t changed

let authorized_set t user =
  Str_set.fold (fun role acc -> Str_set.union acc (descendants t role)) (assigned t user)
    Str_set.empty

let deassign_user t user role =
  require_role t role;
  let existing = assigned t user in
  let changed = Str_set.mem role existing in
  Hashtbl.replace t.ua (key user) (Str_set.remove role existing);
  counted t changed;
  if changed then begin
    (* Central revocation reaches into live sessions immediately. *)
    let still_authorized = authorized_set t user in
    List.iter
      (fun session ->
        if Ident.equal session.user user then
          session.active <- Str_set.inter session.active still_authorized)
      t.sessions
  end

let perms_of t role =
  match Hashtbl.find_opt t.pa role with Some s -> s | None -> Perm_set.empty

let grant_permission t role permission =
  require_role t role;
  let existing = perms_of t role in
  let changed = not (Perm_set.mem permission existing) in
  Hashtbl.replace t.pa role (Perm_set.add permission existing);
  counted t changed

let add_ssd t a b =
  require_role t a;
  require_role t b;
  let offender =
    Ident.Set.filter
      (fun user ->
        let roles = assigned t user in
        Str_set.mem a roles && Str_set.mem b roles)
      t.users
  in
  (match Ident.Set.choose_opt offender with
  | Some user ->
      invalid_arg
        (Printf.sprintf "Rbac96.add_ssd: user %s already holds both %s and %s"
           (Ident.to_string user) a b)
  | None -> ());
  if not (List.mem (a, b) t.ssd || List.mem (b, a) t.ssd) then begin
    t.ssd <- (a, b) :: t.ssd;
    counted t true
  end

let create_session t user =
  let session = { user; active = Str_set.empty; closed = false } in
  t.sessions <- session :: t.sessions;
  session

let activate_role t session role =
  require_role t role;
  if session.closed then Error "session closed"
  else if Str_set.mem role (authorized_set t session.user) then begin
    session.active <- Str_set.add role session.active;
    Ok ()
  end
  else Error (Printf.sprintf "user not authorized for role %s" role)

let active_roles session = Str_set.elements session.active

let check t session permission =
  (not session.closed)
  && Str_set.exists
       (fun role ->
         Str_set.exists
           (fun r -> Perm_set.mem permission (perms_of t r))
           (descendants t role))
       session.active

let assigned_roles t user = Str_set.elements (assigned t user)

let authorized_roles t user = Str_set.elements (authorized_set t user)

let users_of_role t role =
  Ident.Set.elements (Ident.Set.filter (fun user -> Str_set.mem role (assigned t user)) t.users)

let role_count t = Str_set.cardinal t.roles

let user_count t = Ident.Set.cardinal t.users
