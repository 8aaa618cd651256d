module Value = Vnl_relation.Value

type t = Insert | Update | Delete

exception Impossible of string

let to_string = function Insert -> "insert" | Update -> "update" | Delete -> "delete"

let impossible previous next =
  raise
    (Impossible
       (Printf.sprintf "cannot apply %s to a tuple whose previous operation is %s"
          (to_string next) (to_string previous)))

let combine_same_txn ~previous next =
  match (previous, next) with
  | Insert, Update -> `Becomes Insert
  | Insert, Delete -> `Physically_delete
  | Update, Update -> `Becomes Update
  | Update, Delete -> `Becomes Delete
  | Delete, Insert -> `Becomes Update
  | (Insert | Update), Insert | Delete, (Update | Delete) -> impossible previous next

let check_older_txn ~previous next =
  match (previous, next) with
  | Delete, Insert -> ()
  | (Insert | Update), (Update | Delete) -> ()
  | (Insert | Update), Insert | Delete, (Update | Delete) -> impossible previous next

let to_value op = Value.Str (match op with Insert -> "i" | Update -> "u" | Delete -> "d")

let of_value = function
  | Value.Str "i" -> Insert
  | Value.Str "u" -> Update
  | Value.Str "d" -> Delete
  | v -> invalid_arg (Printf.sprintf "Op.of_value: %s" (Value.to_string v))

let code = function Insert -> 'i' | Update -> 'u' | Delete -> 'd'

let of_code = function
  | 'i' -> Insert
  | 'u' -> Update
  | 'd' -> Delete
  | c -> invalid_arg (Printf.sprintf "Op.of_code: %C" c)

let pp ppf op = Format.pp_print_string ppf (to_string op)

let equal a b = a = b

let all = [ Insert; Update; Delete ]
