type t = { major : int; minor : int }

let make major minor =
  if major < 0 || minor < 0 then
    invalid_arg "Version.make: negative component";
  { major; minor }

let initial = { major = 0; minor = 1 }
let major v = v.major
let minor v = v.minor
let is_provisional v = v.major = 0
let bump_minor v = { v with minor = v.minor + 1 }

let promote v =
  if is_provisional v then { major = 1; minor = 0 }
  else { major = v.major + 1; minor = 0 }

let compare a b =
  match Int.compare a.major b.major with
  | 0 -> Int.compare a.minor b.minor
  | c -> c

let equal a b = compare a b = 0
(* Small numbers skip [string_of_int]'s C formatter, the costly part. *)
let small = Array.init 100 string_of_int
let digits n = if n >= 0 && n < 100 then small.(n) else string_of_int n
let to_string v = digits v.major ^ "." ^ digits v.minor

let of_string s =
  match String.split_on_char '.' (String.trim s) with
  | [ ma; mi ] -> (
      match (int_of_string_opt ma, int_of_string_opt mi) with
      | Some ma, Some mi when ma >= 0 && mi >= 0 -> Ok { major = ma; minor = mi }
      | _ -> Error (Printf.sprintf "invalid version %S" s))
  | _ -> Error (Printf.sprintf "invalid version %S" s)

let pp ppf v = Fmt.string ppf (to_string v)
