let never_expire_bound ~n ~gap ~txn_len =
  if n < 2 then invalid_arg "Expiry.never_expire_bound: n must be >= 2";
  if gap < 0 || txn_len < 0 then invalid_arg "Expiry.never_expire_bound: negative duration";
  ((n - 1) * (gap + txn_len)) - txn_len

type policy = Fixed_schedule | Commit_when_quiescent | More_versions of int

let policy_name = function
  | Fixed_schedule -> "fixed-schedule"
  | Commit_when_quiescent -> "commit-when-quiescent"
  | More_versions n -> Printf.sprintf "%dVNL" n

(* Smallest n >= 2 with (n - 1) * (gap + txn_len) - txn_len >= session_len,
   in closed form: n - 1 >= ceil((session_len + txn_len) / (gap + txn_len)).
   The degenerate period gap = txn_len = 0 makes the bound 0 for every n —
   no version count helps — so it is rejected up front instead of being
   discovered by a seven-figure linear search. *)
let versions_needed ~session_len ~gap ~txn_len =
  if session_len < 0 || gap < 0 || txn_len < 0 then
    invalid_arg "Expiry.versions_needed: negative duration";
  let period = gap + txn_len in
  if period = 0 then begin
    if session_len <= 0 then 2
    else
      invalid_arg
        "Expiry.versions_needed: unsatisfiable: gap = 0 and txn_len = 0 leave every bound at 0"
  end
  else begin
    let need = session_len + txn_len in
    if need <= 0 then 2 else max 2 (1 + ((need + period - 1) / period))
  end
