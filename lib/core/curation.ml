type role = Member | Reviewer | Curator
type account = { account_name : string; role : role }

let account ?(role = Member) account_name = { account_name; role }

let role_name = function
  | Member -> "member"
  | Reviewer -> "reviewer"
  | Curator -> "curator"

let role_of_name s =
  match String.lowercase_ascii (String.trim s) with
  | "member" -> Some Member
  | "reviewer" -> Some Reviewer
  | "curator" -> Some Curator
  | _ -> None

let can_comment _ = true
let can_review a = match a.role with Reviewer | Curator -> true | Member -> false
let can_approve a = match a.role with Curator -> true | Reviewer | Member -> false

let can_edit ~author_names a =
  match a.role with
  | Curator -> true
  | Reviewer | Member -> List.mem a.account_name author_names

