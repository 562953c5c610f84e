type t =
  | Correct
  | Hippocratic
  | Undoable
  | History_ignorant
  | Well_behaved
  | Very_well_behaved
  | Oblivious
  | Simply_matching
  | Least_change
  | Bijective

let all =
  [
    Correct;
    Hippocratic;
    Undoable;
    History_ignorant;
    Well_behaved;
    Very_well_behaved;
    Oblivious;
    Simply_matching;
    Least_change;
    Bijective;
  ]

let name = function
  | Correct -> "correct"
  | Hippocratic -> "hippocratic"
  | Undoable -> "undoable"
  | History_ignorant -> "history-ignorant"
  | Well_behaved -> "well-behaved"
  | Very_well_behaved -> "very-well-behaved"
  | Oblivious -> "oblivious"
  | Simply_matching -> "simply-matching"
  | Least_change -> "least-change"
  | Bijective -> "bijective"

let normalise s =
  String.lowercase_ascii (String.trim s)
  |> String.map (function ' ' | '_' -> '-' | c -> c)

let of_name s =
  let s = normalise s in
  List.find_opt (fun p -> String.equal (name p) s) all

let describe = function
  | Correct ->
      "Restoration re-establishes consistency: after fwd (resp. bwd) the \
       two models satisfy the consistency relation."
  | Hippocratic ->
      "Restoration never modifies models that are already consistent \
       ('first, do no harm')."
  | Undoable ->
      "For consistent (m, n), restoring after an interfering change and \
       then restoring again with the original model returns exactly the \
       original state: fwd m (fwd m' n) = n, and dually for bwd. The \
       paper's Composers discussion shows why this is usually too strong: \
       data hidden from one side (the composers' dates) cannot be \
       reconstructed."
  | History_ignorant ->
      "Restoration forgets intermediate states: fwd m' (fwd m n) = fwd m' \
       n (the symmetric analogue of the PutPut lens law)."
  | Well_behaved ->
      "For asymmetric lenses: GetPut (put (get s) s = s) and PutGet (get \
       (put v s) = v) both hold."
  | Very_well_behaved ->
      "A well-behaved lens additionally satisfying PutPut: put v' (put v \
       s) = put v' s."
  | Oblivious ->
      "Restoration ignores the model being overwritten: fwd m n does not \
       depend on n (and dually). Oblivious bx are exactly those induced by \
       plain functions."
  | Simply_matching ->
      "Restoration works by computing a matching (alignment) between \
       corresponding items of the two models and repairing each matched \
       pair independently; unmatched items are created or deleted. A \
       structural property of the restoration strategy rather than an \
       equational law."
  | Least_change ->
      "Restoration picks a consistent model as close as possible to the \
       one being repaired, for a stated notion of distance (the research \
       programme of the 'Theory of Least Change' project that motivates \
       the repository)."
  | Bijective ->
      "The consistency relation is a bijection between the two model \
       spaces; restoration is function application in each direction."

let machine_checkable = function
  | Correct | Hippocratic | Undoable | History_ignorant | Well_behaved
  | Very_well_behaved | Oblivious | Bijective ->
      true
  | Simply_matching | Least_change -> false

type claim = Satisfies of t | Violates of t

let claim_name = function
  | Satisfies p -> name p
  | Violates p -> "not " ^ name p

let claim_of_name s =
  let s = String.trim (String.lowercase_ascii s) in
  let prefix = "not " in
  if String.length s > String.length prefix
     && String.equal (String.sub s 0 (String.length prefix)) prefix then
    Option.map
      (fun p -> Violates p)
      (of_name (String.sub s (String.length prefix)
                  (String.length s - String.length prefix)))
  else Option.map (fun p -> Satisfies p) (of_name s)

let pp ppf p = Fmt.string ppf (name p)
