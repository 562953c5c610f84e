type verdict = Holds | Violated of string

type 'a t = {
  name : string;
  description : string;
  check : 'a -> verdict;
}

let make ~name ~description check = { name; description; check }
let holds = Holds
let violated fmt = Format.kasprintf (fun msg -> Violated msg) fmt

let require cond fmt =
  Format.kasprintf (fun msg -> if cond then Holds else Violated msg) fmt

let contramap f law = { law with check = (fun b -> law.check (f b)) }

let conj ~name ~description laws =
  let check x =
    let rec first = function
      | [] -> Holds
      | law :: rest -> (
          match law.check x with
          | Holds -> first rest
          | Violated msg -> Violated (Printf.sprintf "[%s] %s" law.name msg))
    in
    first laws
  in
  { name; description; check }

let check_all law inputs =
  List.mapi (fun i x -> (i, x, law.check x)) inputs
  |> List.filter_map (fun (i, x, v) ->
         match v with Holds -> None | Violated msg -> Some (i, x, msg))

let pp_verdict ppf = function
  | Holds -> Fmt.string ppf "holds"
  | Violated msg -> Fmt.pf ppf "violated: %s" msg
