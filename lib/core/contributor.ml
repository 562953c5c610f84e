type t = { person_name : string; affiliation : string option }

let make ?affiliation person_name = { person_name; affiliation }
let equal a b = a = b

let to_string c =
  match c.affiliation with
  | None -> c.person_name
  | Some a -> String.concat "" [ c.person_name; " ("; a; ")" ]

let pp ppf c = Fmt.string ppf (to_string c)

let of_string s =
  let s = String.trim s in
  let n = String.length s in
  if n > 0 && s.[n - 1] = ')' then
    match String.rindex_opt s '(' with
    | Some i when i > 0 ->
        {
          person_name = String.trim (String.sub s 0 i);
          affiliation = Some (String.sub s (i + 1) (n - i - 2));
        }
    | _ -> { person_name = s; affiliation = None }
  else { person_name = s; affiliation = None }
